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
//! - [`span!`] — RAII wall-clock span guards around the interesting code
//!   paths (Algorithm 2, the LP solve, the VCM graph build, the DAM
//!   transfer planner, `encode_frame`).
//! - Exporters — JSONL event lines ([`MemoryRecorder::to_jsonl`]), a human
//!   `feves stats` summary table ([`MemoryRecorder::render_stats`]), and a
//!   Chrome-trace-event builder ([`ChromeTraceBuilder`]) whose output loads
//!   directly in Perfetto / `chrome://tracing`.
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
pub mod bus;
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
pub mod trace;

pub use audit::{imbalance_index, residual_pct, AuditSummary, DeviceAudit};
pub use bus::{BusController, BusStats, DeviceField, LiveConfig, TelemetryBus, TelemetryEvent};
pub use chrome::ChromeTraceBuilder;
pub use compare::{compare_reports, compare_reports_metric, CompareOutcome, MetricDelta};
pub use critical::{validate_dag, Bucket, CriticalReport, JobCritical, WhatIf};
pub use flight::{
    parse_jsonl as parse_flight_jsonl, parse_jsonl_with_markers as parse_flight_jsonl_with_markers,
    DeviceRecord, FlightRecord, FlightRecorder, TauTriple,
};
pub use histogram::Histogram;
pub use live::{build_snapshot, LiveSnapshot};
pub use persist::{sweep_orphans, write_atomic, write_atomic_recorded};
pub use recorder::{MemoryRecorder, NoopRecorder, Recorder, Span, SpanStat};
pub use report::render_html;
pub use scope::{hub, DeviceLive, RetiredSession, SessionScope, TelemetryHub};
pub use trace::{EdgeKind, TraceCollector, TraceCtx, TraceEdge, TraceLog, TraceSink, TraceSpan};

use std::sync::Arc;

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

/// The framework's metric registry. Indexes into [`REGISTRY`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[repr(usize)]
pub enum Metric {
    /// Wall-clock load-balancer runtime per inter-frame (µs) — the paper's
    /// "< 2 ms scheduling overhead" claim.
    SchedOverheadUs,
    /// Simulated τ1 sync point per inter-frame (ms).
    FrameTau1Ms,
    /// Simulated τ2 sync point per inter-frame (ms).
    FrameTau2Ms,
    /// Simulated τtot (frame encoding time) per inter-frame (ms).
    FrameTauTotMs,
    /// Per-frame compute-lane busy-time imbalance, `(max−min)/max·100`.
    LbImbalancePct,
    /// Simplex iterations per Algorithm 2 LP solve.
    LpIterations,
    /// Bytes *not* transferred thanks to the Δ/σ data-reuse machinery.
    DamBytesReused,
    /// Bytes moved over PCIe per the DAM transfer plans.
    DamBytesTransferred,
    /// Tasks (kernels + transfers + barriers) scheduled by the VCM.
    VcmTasksScheduled,
    /// Frames encoded (intra + inter).
    FramesEncoded,
    /// Device faults injected by the fault schedule.
    FtFaultsInjected,
    /// Device faults detected (missed deadlines, transfer errors, stripe
    /// panics).
    FtFaultsDetected,
    /// Detected faults the framework recovered from (re-dispatch completed).
    FtFaultsRecovered,
    /// Algorithm-2 re-solves on a reduced platform after a fault.
    FtResolves,
    /// MB rows re-dispatched from faulty devices to survivors.
    FtRedispatchedRows,
    /// Virtual time lost to fault detection + re-dispatch per affected
    /// frame (ms).
    FtRecoveryMs,
    /// Active hot-kernel implementation (0 = scalar, 1 = fast SWAR), per
    /// `FEVES_KERNELS` / `feves_codec::kernels::active_kind`.
    KernelDispatch,
    /// Drift-detector firings: a device's prediction residual stayed outside
    /// the configured band for K consecutive frames (triggers
    /// re-characterization).
    SchedDrift,
    /// Deadline misses attributed to a device the drift detector had
    /// *already* flagged — likely model drift, not a hard fault.
    FtDriftVsFault,
    /// Absolute LP-prediction residual per device per frame,
    /// `|measured − predicted| / predicted · 100`.
    AuditResidualAbsPct,
    /// Per-frame load-imbalance index, `max/mean` compute-lane busy time
    /// (the Fig 6 quantity; 1.0 = perfectly balanced).
    LbImbalanceIndex,
    /// Checkpoints durably committed (temp + fsync + rename completed).
    CkptWrites,
    /// Total checkpoint bytes written across all generations.
    CkptBytes,
    /// Wall-clock time spent snapshotting + writing one checkpoint (ms).
    CkptWriteMs,
    /// Telemetry-bus events drained and applied to this session's registry.
    ObsBusEvents,
    /// Telemetry events dropped at a full bus (the drop-and-count policy:
    /// the encode loop is never blocked; losses are made visible here).
    ObsDroppedEvents,
    /// Sampled cost of one bus enqueue (every 64th publish is timed) —
    /// the bus metering its own hot-path overhead.
    ObsBusEnqueueNs,
    /// Wall-clock cost of one drain batch (pop + apply, up to 1024 events).
    ObsBusDrainUs,
    /// Jobs waiting in the farm admission queue (sampled at every farm
    /// state change).
    FarmQueueDepth,
    /// Jobs rejected at admission because the queue crossed its
    /// high-watermark (`QueueFull`).
    FarmAdmissionRejects,
    /// Session retries launched by the farm supervisor (after a panic or
    /// device fault, resuming from the last durable checkpoint).
    FarmRetries,
    /// Jobs that completed successfully (bitstream fully written).
    FarmJobsCompleted,
    /// Jobs that exhausted their retry budget or failed fatally.
    FarmJobsFailed,
    /// Wall-clock time from drain request to farm exit (ms).
    FarmDrainMs,
    /// Per-frame critical-path time shaved by inter-frame pipelining (µs):
    /// the span of frame N+1's phase-1 prefix that ran inside frame N's
    /// per-device τ-sync stalls.
    PipelineOverlapUs,
    /// Per-frame total device stall recovered by the pipeline (µs), summed
    /// across devices (each device's recovered span ≤ its carried stall).
    PipelineStallRecoveredUs,
    /// Causal-trace spans recorded (job/queue/attempt/frame/kernel spans
    /// flowing into the farm's `TraceCollector`).
    TraceSpans,
    /// Causal-trace edges recorded (queue→admit, checkpoint→resume,
    /// pipeline-overlap links).
    TraceEdges,
    /// Transient-I/O retries spent by durable writers (checkpoints,
    /// `write_atomic`, spool/done control files).
    IoRetries,
    /// Writes that failed with ENOSPC (disk full) — the farm's
    /// disk-pressure trigger.
    IoEnospcEvents,
    /// Corrupt control files / artifacts rejected by CRC or structural
    /// validation (quarantined, never trusted).
    IoCorruptRejected,
    /// Farm disk-pressure state (1 = admission paused at the free-space low
    /// watermark, 0 = healthy).
    FarmDiskPressure,
}

/// Definitions for every [`Metric`], in `Metric` discriminant order.
pub static REGISTRY: [MetricDef; 42] = [
    MetricDef {
        name: "sched.overhead_us",
        unit: "us",
        kind: MetricKind::Histogram,
        wall_clock: true,
    },
    MetricDef {
        name: "frame.tau1_ms",
        unit: "ms",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "frame.tau2_ms",
        unit: "ms",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "frame.tau_tot_ms",
        unit: "ms",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "lb.imbalance_pct",
        unit: "%",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "lp.iterations",
        unit: "iters",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "dam.bytes_reused",
        unit: "bytes",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "dam.bytes_transferred",
        unit: "bytes",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "vcm.tasks_scheduled",
        unit: "tasks",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "frames.encoded",
        unit: "frames",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.faults_injected",
        unit: "faults",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.faults_detected",
        unit: "faults",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.faults_recovered",
        unit: "faults",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.resolves",
        unit: "solves",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.redispatched_rows",
        unit: "rows",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.recovery_ms",
        unit: "ms",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "kernel.dispatch",
        unit: "impl",
        kind: MetricKind::Gauge,
        wall_clock: false,
    },
    MetricDef {
        name: "sched.drift",
        unit: "events",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ft.drift_vs_fault",
        unit: "faults",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "audit.residual_abs_pct",
        unit: "%",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "lb.imbalance_index",
        unit: "ratio",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "ckpt.writes",
        unit: "ckpts",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ckpt.bytes_written",
        unit: "bytes",
        kind: MetricKind::Counter,
        wall_clock: false,
    },
    MetricDef {
        name: "ckpt.write_ms",
        unit: "ms",
        kind: MetricKind::Histogram,
        wall_clock: true,
    },
    // The obs.* bus metrics are all flagged wall_clock: how many events a
    // drain batch catches — and whether any are dropped — depends on host
    // scheduling, so none of them belong in a deterministic export.
    MetricDef {
        name: "obs.bus_events",
        unit: "events",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "obs.dropped_events",
        unit: "events",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "obs.bus_enqueue_ns",
        unit: "ns",
        kind: MetricKind::Histogram,
        wall_clock: true,
    },
    MetricDef {
        name: "obs.bus_drain_us",
        unit: "us",
        kind: MetricKind::Histogram,
        wall_clock: true,
    },
    // The farm.* metrics describe the `feves serve` supervisor. All are
    // wall_clock: queue depth and retry counts depend on job arrival order
    // and host scheduling, never on the virtual encode clock.
    MetricDef {
        name: "farm.queue_depth",
        unit: "jobs",
        kind: MetricKind::Gauge,
        wall_clock: true,
    },
    MetricDef {
        name: "farm.admission_rejects",
        unit: "jobs",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "farm.retries",
        unit: "retries",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "farm.jobs_completed",
        unit: "jobs",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "farm.jobs_failed",
        unit: "jobs",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "farm.drain_ms",
        unit: "ms",
        kind: MetricKind::Histogram,
        wall_clock: true,
    },
    // The pipeline.* metrics are virtual-clock quantities (derived from the
    // simulated schedule), so they stay in deterministic exports.
    MetricDef {
        name: "pipeline.overlap_us",
        unit: "us",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    MetricDef {
        name: "pipeline.stall_recovered_us",
        unit: "us",
        kind: MetricKind::Histogram,
        wall_clock: false,
    },
    // The trace.* counters are wall_clock: farm-level span counts depend on
    // retry/drain timing (how many checkpoints and attempts a run needed),
    // so they surface in live snapshots but stay out of deterministic
    // exports — trace *logs* are schema-golden-tested instead.
    MetricDef {
        name: "trace.spans",
        unit: "spans",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "trace.edges",
        unit: "edges",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    // The io.* counters and the disk-pressure gauge are wall_clock: fault
    // schedules and free-space probes depend on host state, so they surface
    // in live snapshots but stay out of deterministic exports.
    MetricDef {
        name: "io.retries",
        unit: "retries",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "io.enospc_events",
        unit: "events",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "io.corrupt_rejected",
        unit: "files",
        kind: MetricKind::Counter,
        wall_clock: true,
    },
    MetricDef {
        name: "farm.disk_pressure",
        unit: "state",
        kind: MetricKind::Gauge,
        wall_clock: true,
    },
];

impl Metric {
    /// All metrics, in registry order.
    pub const ALL: [Metric; 42] = [
        Metric::SchedOverheadUs,
        Metric::FrameTau1Ms,
        Metric::FrameTau2Ms,
        Metric::FrameTauTotMs,
        Metric::LbImbalancePct,
        Metric::LpIterations,
        Metric::DamBytesReused,
        Metric::DamBytesTransferred,
        Metric::VcmTasksScheduled,
        Metric::FramesEncoded,
        Metric::FtFaultsInjected,
        Metric::FtFaultsDetected,
        Metric::FtFaultsRecovered,
        Metric::FtResolves,
        Metric::FtRedispatchedRows,
        Metric::FtRecoveryMs,
        Metric::KernelDispatch,
        Metric::SchedDrift,
        Metric::FtDriftVsFault,
        Metric::AuditResidualAbsPct,
        Metric::LbImbalanceIndex,
        Metric::CkptWrites,
        Metric::CkptBytes,
        Metric::CkptWriteMs,
        Metric::ObsBusEvents,
        Metric::ObsDroppedEvents,
        Metric::ObsBusEnqueueNs,
        Metric::ObsBusDrainUs,
        Metric::FarmQueueDepth,
        Metric::FarmAdmissionRejects,
        Metric::FarmRetries,
        Metric::FarmJobsCompleted,
        Metric::FarmJobsFailed,
        Metric::FarmDrainMs,
        Metric::PipelineOverlapUs,
        Metric::PipelineStallRecoveredUs,
        Metric::TraceSpans,
        Metric::TraceEdges,
        Metric::IoRetries,
        Metric::IoEnospcEvents,
        Metric::IoCorruptRejected,
        Metric::FarmDiskPressure,
    ];

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

/// Install `rec` as the *default-scope* recorder used by free functions
/// (Algorithm 2, the LP solve, the DAM planner) and by encoders that were
/// not given an explicit recorder or [`SessionScope`].
///
/// This is a thin shim over [`scope::TelemetryHub::default_scope`]: the
/// process keeps exactly one anonymous default session, and `install` swaps
/// its sink. Multi-session callers should create named scopes via
/// [`hub()`]`.session(..)` instead — per-session metrics never flow through
/// the default scope.
pub fn install(rec: Arc<dyn Recorder>) {
    scope::hub().default_scope().set_recorder(rec);
}

/// The default-scope recorder (a [`NoopRecorder`] until [`install`]).
pub fn global() -> Arc<dyn Recorder> {
    scope::hub().default_scope().recorder()
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
    fn registry_names_match_enum_order() {
        for m in Metric::ALL {
            assert_eq!(REGISTRY[m.index()].name, m.name());
        }
        assert_eq!(Metric::SchedOverheadUs.name(), "sched.overhead_us");
        assert_eq!(Metric::LpIterations.name(), "lp.iterations");
        assert!(Metric::SchedOverheadUs.def().wall_clock);
        assert!(!Metric::FrameTauTotMs.def().wall_clock);
    }

    #[test]
    fn global_defaults_to_noop_and_swaps() {
        // Runs in-process with other tests: only check the install path by
        // swapping a memory recorder in and back out.
        let mem = Arc::new(MemoryRecorder::new());
        install(mem.clone());
        global().add(Metric::FramesEncoded, 2);
        assert_eq!(mem.counter(Metric::FramesEncoded), 2);
        install(Arc::new(NoopRecorder));
        assert!(!global().enabled());
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
