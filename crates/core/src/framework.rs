//! Framework Control (paper Algorithm 1): the autonomous per-frame loop
//! tying together load balancing, the Video Coding Manager, Data Access
//! Management, platform execution and performance characterization.
//!
//! - **Initialization phase** (first inter-frame): the platform is "probed"
//!   with an equidistant distribution; measured times seed the performance
//!   characterization (lines 1–6).
//! - **Iterative phase** (every further inter-frame): the Load Balancing
//!   routine produces the next distribution from the measured rates, the
//!   frame executes, and the measurements update the characterization
//!   (lines 7–11) — closing the adaptation loop that recovers from platform
//!   perturbations within a frame (Fig 7).

use crate::config::{BalancerKind, EncoderConfig, ExecutionMode};
use crate::dam::{transfer_bytes, DataManager, DeviceTransfers};
use crate::pipeline;
use crate::report::{EncodeReport, FrameReport};
use crate::trace::{record_frame, timeline};
use crate::vcm::{build_frame_graph, FrameGeometry, FrameGraph, MeasureKind};
use feves_codec::chroma::ChromaField;
use feves_codec::inter_loop::ReferenceStore;
use feves_codec::interp::SubpelFrame;
use feves_codec::mc::ModeField;
use feves_codec::me::MeField;
use feves_codec::par::Crew;
use feves_codec::rate::{RateController, RateSnapshot};
use feves_codec::recon::CoeffField;
use feves_codec::sme::SmeField;
use feves_codec::types::EncodeParams;
use feves_ft::{
    DeadlinePolicy, DeviceFault, DriftDetector, DriftSnapshot, FaultCause, FaultSchedule,
    FevesError, HealthSnapshot, HealthTracker,
};
use feves_hetsim::fault::FaultInjector;
use feves_hetsim::noise::{MultiplicativeNoise, NoiseState};
use feves_hetsim::platform::Platform;
use feves_hetsim::timeline::{simulate, Schedule};
use feves_obs::trace::DeviceSlice;
use feves_obs::{
    residual_pct, DeviceRecord, EdgeKind, FlightRecord, FlightRecorder, Metric, NoopRecorder,
    Recorder, SessionScope, TauTriple, TraceSink,
};
use feves_sched::{
    BalanceInput, Centric, CompletionTracker, Distribution, EquidistantBalancer, FevesBalancer,
    LoadBalancer, PerfChar, ProportionalBalancer, SingleDeviceBalancer,
};
use feves_video::frame::Frame;
use feves_video::geometry::{ranges_from_counts, RowRange};
use feves_video::plane::Plane;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Shared control block between an external supervisor (the `feves serve`
/// farm) and one running encoder: a cooperative stop flag and a fleet-level
/// device lease.
///
/// The lease is a *restriction mask* over the session's full platform —
/// the session keeps every device in its `Platform` (so checkpoints stay
/// compatible across rebalances) but only schedules devices that are both
/// healthy *and* leased. The supervisor rebalances by swapping the mask;
/// the encoder picks the new mask up at the next frame boundary. The mask
/// is fleet state, deliberately not part of [`FrameworkState`]: on resume
/// the supervisor re-applies the current lease.
#[derive(Debug, Default)]
pub struct SessionCtl {
    stop: AtomicBool,
    ckpt_shed: AtomicBool,
    lease: Mutex<Option<Vec<bool>>>,
}

impl SessionCtl {
    /// A control block with no stop requested and no lease (all devices).
    pub fn new() -> Self {
        Self::default()
    }

    /// Ask the session to stop at the next frame boundary (checkpoint and
    /// return, if checkpointing is armed).
    pub fn request_stop(&self) {
        self.stop.store(true, Ordering::Release);
    }

    /// Whether a cooperative stop has been requested.
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }

    /// Toggle checkpoint shedding (disk-pressure degradation): while set,
    /// the session skips *cadence* checkpoints — preemption and final
    /// commits still run, so durability of completed work is never traded
    /// away, only the optional mid-flight generations.
    pub fn set_ckpt_shed(&self, shed: bool) {
        self.ckpt_shed.store(shed, Ordering::Release);
    }

    /// Whether cadence checkpoints are currently shed.
    pub fn ckpt_shed(&self) -> bool {
        self.ckpt_shed.load(Ordering::Acquire)
    }

    /// Replace the device lease (`None` = every device usable).
    pub fn set_lease(&self, lease: Option<Vec<bool>>) {
        *self.lease.lock().unwrap_or_else(|e| e.into_inner()) = lease;
    }

    /// The current device lease, if any.
    pub fn lease(&self) -> Option<Vec<bool>> {
        self.lease.lock().unwrap_or_else(|e| e.into_inner()).clone()
    }
}

/// An externally imposed performance change on one device for a range of
/// inter-frames — models "other processes started running" (Fig 7's events
/// at frames 31/71/76/81/92).
#[derive(Clone, Debug)]
pub struct Perturbation {
    /// Affected device index.
    pub device: usize,
    /// Inter-frame indices (1-based, inclusive start, exclusive end).
    pub frames: std::ops::Range<usize>,
    /// Speed multiplier while active (0.5 = half speed).
    pub factor: f64,
}

/// Per-encoder fault-tolerance counters (mirrors the `ft.*` metrics, kept
/// on the encoder so tests and the CLI can assert on them without a
/// recorder).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FtStats {
    /// Faults the schedule injected so far.
    pub injected: u64,
    /// Faults detected (missed deadlines, transfer errors, stripe panics).
    pub detected: u64,
    /// Detected faults recovered from (the frame still completed).
    pub recovered: u64,
    /// Algorithm-2 re-solves on a reduced platform.
    pub resolves: u64,
    /// MB rows re-dispatched from faulty devices to survivors.
    pub redispatched_rows: u64,
    /// Deadline misses on a device the drift detector had already flagged —
    /// probably drift (a quietly degraded device), not a hard fault.
    pub drift_vs_fault: u64,
}

impl std::ops::AddAssign for FtStats {
    fn add_assign(&mut self, d: FtStats) {
        self.injected += d.injected;
        self.detected += d.detected;
        self.recovered += d.recovered;
        self.resolves += d.resolves;
        self.redispatched_rows += d.redispatched_rows;
        self.drift_vs_fault += d.drift_vs_fault;
    }
}

/// What [`FevesEncoder::plan_frame`] settles for one inter frame: the
/// devices it may use, the distribution over them and that distribution's
/// simulated schedule, plus what fault recovery cost on the way there.
struct Planned {
    /// Devices healthy and leased when the distribution was solved.
    avail: Vec<bool>,
    /// `avail` restricted to accelerators: who gets transfers.
    mask: Vec<bool>,
    dist: Distribution,
    plan: Vec<DeviceTransfers>,
    fg: FrameGraph,
    sched: Schedule,
    /// Raw (τ1, τ2, τtot) of `sched`, virtual seconds.
    tau_s: [f64; 3],
    /// Virtual seconds lost to attempts abandoned at a detected fault.
    recovery_s: f64,
    /// Wall seconds spent in the balancer.
    sched_overhead_s: f64,
    /// Devices a fault was attributed to this frame.
    faulty: Vec<bool>,
    /// This frame's fault-tolerance counter increments so far.
    ft: FtStats,
}

/// One inter frame, measured. The flight record *is* the outcome — it is
/// built every frame — plus the few fields that are not serialised.
struct FrameOutcome {
    /// The decision and schedule this outcome measures.
    planned: Planned,
    record: FlightRecord,
    /// Busy fraction of τtot per compute lane that ran a task.
    lane_busy: Vec<f64>,
    /// Seconds the pipeline shaved off this frame's critical path, and the
    /// previous frame's stall it recovered summed over devices.
    overlap_saved_s: f64,
    overlap_recovered_s: f64,
    bits: Option<u64>,
    psnr: Option<f64>,
}

impl FrameOutcome {
    /// Effective sync point `i`: the whole frame shifts later by the
    /// recovery cost and earlier by the span its phase-1 prefix ran inside
    /// the previous frame's stall.
    fn effective_s(&self, i: usize) -> f64 {
        self.planned.recovery_s + self.planned.tau_s[i] - self.overlap_saved_s
    }
}

/// The balancer `kind` names. Device-pinned policies go through `remap`
/// (identity on the full platform, full → reduced index on a subset) and
/// degrade gracefully when their device is gone: a pinned R\* mapping
/// falls back to Dijkstra, a pinned single accelerator to the CPU cores.
fn make_balancer(
    kind: BalancerKind,
    remap: impl Fn(usize) -> Option<usize>,
) -> Box<dyn LoadBalancer> {
    match kind {
        BalancerKind::Feves => Box::new(FevesBalancer::default()),
        BalancerKind::FevesFixed(c) => Box::new(FevesBalancer {
            fixed_centric: match c {
                Centric::Gpu(i) => remap(i).map(Centric::Gpu),
                Centric::Cpu => Some(Centric::Cpu),
            },
        }),
        BalancerKind::Equidistant => Box::new(EquidistantBalancer),
        BalancerKind::Proportional => Box::new(ProportionalBalancer),
        BalancerKind::Greedy => Box::new(feves_sched::GreedyBalancer::default()),
        BalancerKind::SingleAccelerator(i) => Box::new(SingleDeviceBalancer { device: remap(i) }),
        BalancerKind::CpuOnly => Box::new(SingleDeviceBalancer { device: None }),
    }
}

/// The FEVES encoder: Algorithm 1 over a simulated heterogeneous platform,
/// optionally also executing the real kernels.
pub struct FevesEncoder {
    platform: Platform,
    config: EncoderConfig,
    balancer: Box<dyn LoadBalancer>,
    perf: PerfChar,
    dam: DataManager,
    noise: MultiplicativeNoise,
    prev_dist: Option<Distribution>,
    perturbations: Vec<Perturbation>,
    geometry: FrameGeometry,
    /// Inter-frames encoded so far.
    inter_count: usize,
    /// Total frames encoded (intra + inter, functional mode).
    frames_encoded: usize,
    /// References available (ramps to `params.n_ref`).
    refs_available: usize,
    /// The accepted attempt's graph and schedule of the most recent inter
    /// frame, moved out of its `Planned` when the frame closes.
    last_schedule: Option<(FrameGraph, Schedule)>,
    /// Metrics/span sink for this encoder: a [`NoopRecorder`] until
    /// [`Self::set_recorder`] or [`Self::set_scope`].
    recorder: Arc<dyn Recorder>,
    /// Closed-loop QP controller (functional mode, when configured).
    rate: Option<RateController>,
    // Functional-mode state.
    store: ReferenceStore,
    recon_pending: Option<ReconPending>,
    /// The inter path's frame-sized working set, created by the first
    /// inter frame and reused by every later one.
    scratch: Option<FrameScratch>,
    // Fault tolerance.
    injector: FaultInjector,
    health: HealthTracker,
    deadline: DeadlinePolicy,
    /// EWMA of measured healthy (τ1, τ2, τtot) — the deadline baseline for
    /// heuristic balancers that produce no LP prediction.
    expected_tau: Option<(f64, f64, f64)>,
    ft_stats: FtStats,
    /// Prediction-drift detector over per-device LP residuals; a firing
    /// resets that device's characterization (→ equidistant probe).
    drift: DriftDetector,
    /// Optional schedule flight recorder ([`Self::enable_flight`]).
    flight: Option<FlightRecorder>,
    /// Optional telemetry session: metrics land in the session's registry,
    /// and it feeds the live per-device view (`feves top`). Kept beside
    /// `recorder` (the same registry) for as long as the encoder records.
    scope: Option<SessionScope>,
    /// Optional supervisor control block (stop flag + device lease).
    ctl: Option<Arc<SessionCtl>>,
    /// The last frame's per-device τ-sync stall, which the next frame's
    /// phase-1 prefix may fill: kept only under `config.pipeline`, dropped
    /// at every frame boundary ([`Self::quiesce_pipeline`]).
    carry: Option<Vec<f64>>,
    /// Optional causal-trace sink ([`Self::set_trace`]): frame/phase/kernel
    /// spans on the virtual clock, parented under the caller's attempt span.
    trace_sink: Option<TraceSink>,
    /// Span id of the previous frame span — the source of the next
    /// pipeline-overlap edge.
    prev_frame_span: Option<u64>,
    /// Virtual-clock cursor: where the next frame span starts, µs relative
    /// to this attempt.
    trace_cursor_us: f64,
}

/// A reconstruction waiting to be interpolated and pushed as a reference.
struct ReconPending {
    y: Plane<u8>,
    u: Plane<u8>,
    v: Plane<u8>,
}

/// What one functional inter frame computes on its way to a reconstruction
/// and a bit count, and the crew that computes it. Nothing in it outlives
/// the frame — each module overwrites all of its output, every frame,
/// before anything reads it — so it is working memory, not state: no
/// snapshot carries it, and an encoder restored from a checkpoint starts
/// with a new one. An encoder that only runs the timing model never makes
/// one, so it starts no thread.
struct FrameScratch {
    me: MeField,
    sme: SmeField,
    modes: ModeField,
    coeffs: CoeffField,
    chroma: ChromaField,
    /// The host's threads for every region of the frame, parked between
    /// them.
    crew: Crew,
}

impl FrameScratch {
    fn new(g: FrameGeometry) -> Self {
        FrameScratch {
            me: MeField::new(g.mb_cols, g.n_rows),
            sme: SmeField::new(g.mb_cols, g.n_rows),
            modes: ModeField::new(g.mb_cols, g.n_rows),
            coeffs: CoeffField::new(g.mb_cols, g.n_rows),
            chroma: ChromaField::new(g.mb_cols, g.n_rows),
            crew: Crew::host(),
        }
    }
}

/// The complete mutable state of a [`FevesEncoder`], as captured by
/// [`FevesEncoder::snapshot`] and consumed by [`FevesEncoder::restore`].
///
/// Everything the iterative phase has learned or accumulated is here —
/// the performance characterization (NaN sentinels and all), device
/// health/backoff timers, drift streaks, the rate-control loop, DAM σʳ
/// carry-over, the reference window, and the encode cursor. Deliberately
/// *not* here: anything derivable from `(Platform, EncoderConfig)` — the
/// balancer, geometry, fault schedule, deadline policy — and the sub-pixel
/// frames, which [`ReferenceStore::rebuild`] re-derives bit-exactly from
/// the reconstructed planes at a fraction of the size. Test-only hooks
/// (perturbations, an attached recorder, the in-memory flight ring) are
/// also excluded; the CLI re-arms those on resume.
#[derive(Clone, Debug)]
pub struct FrameworkState {
    /// On-line performance characterization.
    pub perf: PerfChar,
    /// DAM deferred-SF remainder per device.
    pub dam_sigma_rem: Vec<usize>,
    /// Measurement-noise RNG position.
    pub noise: NoiseState,
    /// Previous frame's distribution (Algorithm 2's warm start).
    pub prev_dist: Option<Distribution>,
    /// Inter-frames encoded so far.
    pub inter_count: usize,
    /// Total frames encoded (intra + inter).
    pub frames_encoded: usize,
    /// References available (ramping toward `n_ref`).
    pub refs_available: usize,
    /// Rate-controller state, when rate control is active.
    pub rate: Option<RateSnapshot>,
    /// Reference window: reconstructed `(Y, Cb, Cr)` pictures, most recent
    /// first; SFs are rebuilt on restore.
    pub refs: Vec<(Plane<u8>, Plane<u8>, Plane<u8>)>,
    /// Reconstruction not yet interpolated into the reference window.
    pub recon_pending: Option<(Plane<u8>, Plane<u8>, Plane<u8>)>,
    /// Device health state machine (blacklists, backoffs, probation).
    pub health: HealthSnapshot,
    /// EWMA deadline baseline of healthy (τ1, τ2, τtot).
    pub expected_tau: Option<(f64, f64, f64)>,
    /// Fault-tolerance counters.
    pub ft_stats: FtStats,
    /// Drift-detector streaks and flags.
    pub drift: DriftSnapshot,
}

impl FevesEncoder {
    /// Create an encoder for `platform` with `config`.
    pub fn new(platform: Platform, config: EncoderConfig) -> Result<Self, FevesError> {
        config.validate()?;
        platform.validate()?;
        if matches!(config.balancer, BalancerKind::SingleAccelerator(i) if i >= platform.n_accel) {
            return Err(FevesError::Config(
                "single-accelerator balancer index out of range".into(),
            ));
        }
        if let Some(spec) = config.faults.iter().find(|s| s.device >= platform.len()) {
            return Err(FevesError::Config(format!(
                "fault spec `{spec}` names device {} but the platform has {} devices",
                spec.device,
                platform.len()
            )));
        }
        let padded = config.resolution.padded();
        let geometry = FrameGeometry {
            mb_cols: padded.width / 16,
            n_rows: padded.height / 16,
            width: padded.width,
        };
        // Device memory management (paper §III-B-2): refuse configurations
        // whose buffers cannot fit on an accelerator.
        DataManager::check_memory(
            &platform,
            geometry.n_rows,
            geometry.width,
            config.params.n_ref,
        )?;
        let n_ref = config.params.n_ref;
        Ok(FevesEncoder {
            perf: PerfChar::new(platform.len(), config.ewma),
            dam: DataManager::new(geometry.n_rows, platform.len()),
            noise: MultiplicativeNoise::new(config.noise_amp, config.noise_seed),
            balancer: make_balancer(config.balancer, Some),
            prev_dist: None,
            perturbations: Vec::new(),
            geometry,
            inter_count: 0,
            frames_encoded: 0,
            refs_available: 0,
            last_schedule: None,
            recorder: Arc::new(NoopRecorder),
            rate: config
                .rate_control
                .map(|rc| RateController::new(rc.target_kbps, rc.fps, config.params.qp)),
            store: ReferenceStore::new(n_ref),
            recon_pending: None,
            scratch: None,
            injector: FaultInjector::new(FaultSchedule::new(config.faults.clone())),
            health: {
                let mut health = HealthTracker::new(platform.len(), 2, 3);
                health.set_jitter_seed(config.health_jitter);
                health
            },
            deadline: DeadlinePolicy::new(config.deadline_factor),
            expected_tau: None,
            ft_stats: FtStats::default(),
            drift: DriftDetector::new(platform.len(), config.drift),
            flight: None,
            scope: None,
            ctl: None,
            carry: None,
            trace_sink: None,
            prev_frame_span: None,
            trace_cursor_us: 0.0,
            platform,
            config,
        })
    }

    /// Attach a metrics/span recorder to this encoder. Per-frame metrics
    /// (τ sync points, imbalance, LP iterations, DAM byte volumes) and the
    /// wall-clock spans around the encoder's own calls (`balance`,
    /// `dam.plan`, `vcm.build`) are recorded here; without one, nothing is.
    pub fn set_recorder(&mut self, rec: Arc<dyn Recorder>) {
        self.recorder = rec;
    }

    /// Bind this encoder to a telemetry session: all metrics flow into the
    /// scope's registry, the
    /// scope's live device rows are labeled from the platform, and every
    /// completed frame ticks the session's frames/s figure. Supersedes any
    /// recorder set via [`Self::set_recorder`].
    pub fn set_scope(&mut self, scope: SessionScope) {
        scope.set_device_labels(
            &self
                .platform
                .devices
                .iter()
                .map(|d| d.name.clone())
                .collect::<Vec<_>>(),
        );
        self.recorder = scope.recorder();
        self.scope = Some(scope);
    }

    /// Attach a causal-trace sink: every inter frame from now on records a
    /// `frame{n}` span on the attempt's virtual clock with phase/kernel
    /// children, per-device rate slices (rows + compute-busy ms, the
    /// samples the what-if analyzer re-balances), the τ decomposition as
    /// args, and a pipeline-overlap edge from the previous frame when
    /// carried stall was recovered. Without a sink the frame loop never
    /// touches the trace path — one `Option` check per frame.
    pub fn set_trace(&mut self, sink: TraceSink) {
        self.trace_sink = Some(sink);
    }

    /// Attach a supervisor control block: the encoder honors its device
    /// lease at every frame boundary (callers poll its stop flag in their
    /// encode loops).
    pub fn set_ctl(&mut self, ctl: Arc<SessionCtl>) {
        self.ctl = Some(ctl);
    }

    /// The devices a frame may be scheduled on: healthy and, when the
    /// supervisor set a lease, leased. Safety guard: a lease that would
    /// leave the session without any live host core (the balancer's
    /// invariant) is ignored wholesale rather than partially honored —
    /// health-only availability wins.
    fn usable_devices(&self) -> Vec<bool> {
        let avail = self.health.available();
        let Some(lease) = self.ctl.as_ref().and_then(|c| c.lease()) else {
            return avail;
        };
        if lease.len() != avail.len() {
            return avail;
        }
        let masked: Vec<bool> = avail.iter().zip(&lease).map(|(&a, &l)| a && l).collect();
        let has_core =
            (self.platform.devices.iter().zip(&masked)).any(|(d, &v)| !d.is_accelerator() && v);
        if has_core {
            masked
        } else {
            avail
        }
    }

    /// This encoder's recorder.
    fn rec(&self) -> Arc<dyn Recorder> {
        self.recorder.clone()
    }

    /// Register a perturbation (timing-only or functional).
    pub fn add_perturbation(&mut self, p: Perturbation) {
        assert!(p.device < self.platform.len());
        assert!(p.factor > 0.0);
        self.perturbations.push(p);
    }

    /// Fault-tolerance counters accumulated so far.
    pub fn ft_stats(&self) -> FtStats {
        self.ft_stats
    }

    /// Turn on the schedule flight recorder: every inter frame from now on
    /// appends one decision + measurement record to a ring of `capacity`
    /// records (see [`FlightRecorder`]). Drift detection runs regardless;
    /// this only controls whether the per-frame records are retained.
    pub fn enable_flight(&mut self, capacity: usize) {
        self.flight = Some(FlightRecorder::new(capacity));
    }

    /// The flight recorder, when enabled.
    pub fn flight(&self) -> Option<&FlightRecorder> {
        self.flight.as_ref()
    }

    /// Mutable flight recorder (the resume path stamps a marker into it).
    pub fn flight_mut(&mut self) -> Option<&mut FlightRecorder> {
        self.flight.as_mut()
    }

    /// The MB-row geometry the encoder is operating on.
    pub fn geometry(&self) -> FrameGeometry {
        self.geometry
    }

    /// Per-device health state.
    pub fn health(&self) -> &HealthTracker {
        &self.health
    }

    /// The platform being driven.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// Current performance characterization (for inspection).
    pub fn perf(&self) -> &PerfChar {
        &self.perf
    }

    /// Configuration.
    pub fn config(&self) -> &EncoderConfig {
        &self.config
    }

    /// Inter-frames encoded so far.
    pub fn inter_frames(&self) -> usize {
        self.inter_count
    }

    fn speed_multipliers(&self, inter_frame: usize) -> Vec<f64> {
        let mut m = self.platform.nominal_speeds();
        for p in &self.perturbations {
            if p.frames.contains(&inter_frame) {
                m[p.device] *= p.factor;
            }
        }
        m
    }

    /// Load balancing over the available devices. With everything healthy
    /// this is the plain Algorithm-1 path; with blacklisted devices the
    /// balancer runs on the reduced platform (`Platform::subset`) and the
    /// result is scattered back to full-platform coordinates with zero rows
    /// on the excluded devices.
    fn balance(&mut self, n_rows: usize, avail: &[bool]) -> Distribution {
        let _span = feves_obs::span!(self.rec(), "balance");
        if avail.iter().all(|&a| a) {
            let d = self.balancer.distribute(&BalanceInput {
                n_rows,
                platform: &self.platform,
                perf: &self.perf,
                prev: self.prev_dist.as_ref(),
            });
            debug_assert!(d.validate(n_rows).is_ok());
            return d;
        }
        let (sub, map) = self
            .platform
            .subset(avail)
            .expect("the health tracker never blacklists the last live core");
        let sub_perf = self.perf.subset(avail);
        let prev_sub = self.prev_dist.as_ref().and_then(|d| d.restrict(avail));
        let mut balancer = make_balancer(self.config.balancer, |full| {
            map.iter().position(|&f| f == full)
        });
        let d = balancer.distribute(&BalanceInput {
            n_rows,
            platform: &sub,
            perf: &sub_perf,
            prev: prev_sub.as_ref(),
        });
        let full = d.expand(&map, self.platform.len());
        debug_assert!(full.validate(n_rows).is_ok());
        full
    }

    /// Detection: injected transfer errors surface as DMA failures;
    /// everything else is caught by the sync-point deadlines (deadline =
    /// predicted τ × factor). Returns the fault and the virtual time wasted
    /// before it was detected.
    fn detect_fault(&self, p: &Planned) -> Option<(DeviceFault, f64)> {
        let frame = self.inter_count + 1;
        let [tau1, tau2, tau_tot] = p.tau_s;
        let fault = |device, cause| DeviceFault {
            device,
            frame,
            cause,
        };
        for (device, &has_xfers) in p.mask.iter().enumerate() {
            if has_xfers && self.injector.transfer_fault(frame, device) {
                // The DMA engine reports the failure no later than the first
                // sync point that waits on the transfer.
                return Some((fault(device, FaultCause::TransferError), tau1));
            }
        }
        // An LP balancer running without a prediction is doing a
        // characterization probe (the init frame, a drift-triggered
        // re-probe, or a post-blacklist re-probe). Probes are equidistant —
        // structurally slower than balanced frames — so the EWMA baseline
        // of healthy *balanced* frames would misfire on them: detection
        // pauses for the probe and resumes with the next predicted frame.
        if p.dist.predicted.is_none()
            && matches!(
                self.config.balancer,
                BalancerKind::Feves | BalancerKind::FevesFixed(_)
            )
        {
            return None;
        }
        // Deadlines come from the LP prediction when the balancer provides
        // one, else from the EWMA baseline of past healthy frames. Until
        // either exists (the very first probe frame) detection is off and
        // the characterization loop is the only defence.
        let expected = (p.dist.predicted)
            .map(|lp| (lp.tau1, lp.tau2, lp.tau_tot))
            .or(self.expected_tau)?;
        let (point, at) = self
            .deadline
            .deadlines(expected)
            .check(tau1, tau2, tau_tot)?;
        // Culprit attribution: the device owning the longest-*running*
        // measured task. Finish times won't do — a stalled device delays
        // downstream tasks on innocent devices, which then finish even later
        // than the stalled task itself; but those tasks merely *start* late
        // and run fast, while the faulty device's own task runs for the
        // whole stall.
        let mut longest: Option<(f64, usize)> = None;
        for m in p.fg.measures.iter().filter(|m| p.avail[m.kind.device()]) {
            let dur = p.sched.duration(m.task);
            if longest.is_none_or(|(d, _)| dur > d) {
                longest = Some((dur, m.kind.device()));
            }
        }
        longest.map(|(_, device)| (fault(device, FaultCause::MissedDeadline(point)), at))
    }

    /// Take `device` out of `avail` after a fault: blacklist it and refresh
    /// `avail` from health and lease. Refused (→ `false`) for a CPU core
    /// with no *other* live core beside it — the host must survive
    /// (`Platform::validate` requires ≥ 1 core), so the framework degrades
    /// to CPU-only but never below. Both fault sites drop through here with
    /// the `avail` the previous drop left, so no sequence of faults in one
    /// frame can take every core.
    fn drop_device(&mut self, device: usize, avail: &mut Vec<bool>) -> bool {
        let mut cores = self.platform.n_accel..self.platform.len();
        if cores.contains(&device) && !cores.any(|d| d != device && avail[d]) {
            return false;
        }
        self.health.record_fault(device, self.inter_count + 1);
        *avail = self.usable_devices();
        true
    }

    /// Encode one inter-frame in timing-only mode and return its report.
    pub fn encode_inter_timing(&mut self) -> FrameReport {
        self.refs_available = (self.refs_available + 1).min(self.config.params.n_ref);
        self.run_inter(None)
    }

    /// Run `n` timing-only inter-frames (Algorithm 1's main loop).
    pub fn run_timing(&mut self, n: usize) -> EncodeReport {
        // The I-frame exists implicitly: it provides the first reference.
        let frames = (0..n).map(|_| self.encode_inter_timing()).collect();
        EncodeReport::new(self.platform.name.clone(), frames)
    }

    /// Encode one frame functionally (first call = intra, rest = inter;
    /// with `config.gop = Some(n)`, a closed-GOP I-frame every `n` frames).
    pub fn encode_frame(&mut self, frame: &Frame) -> FrameReport {
        let _span = feves_obs::span!(self.rec(), "encode_frame");
        assert_eq!(
            frame.resolution(),
            self.config.resolution,
            "frame resolution mismatch"
        );
        // Closed-GOP refresh: drop all references and start a new I-frame.
        if let Some(gop) = self.config.gop {
            if self.frames_encoded > 0 && self.frames_encoded.is_multiple_of(gop) {
                self.store.clear();
                self.recon_pending = None;
                self.refs_available = 0;
            }
        }
        self.frames_encoded += 1;
        if self.recon_pending.is_none() && self.store.is_empty() {
            // I-frame: luma intra + chroma-DC intra.
            let intra =
                feves_codec::intra::encode_intra_frame(frame.y(), self.config.params.qp_intra);
            let chroma = feves_codec::chroma::encode_chroma_intra(
                frame.u(),
                frame.v(),
                frame.mb_cols(),
                frame.mb_rows(),
                self.config.params.qp_intra,
            );
            let psnr = feves_video::metrics::psnr(&intra.recon, frame.y());
            self.recon_pending = Some(ReconPending {
                y: intra.recon,
                u: chroma.recon_u,
                v: chroma.recon_v,
            });
            self.rec().add(Metric::FramesEncoded, 1);
            if let Some(scope) = &self.scope {
                scope.frame_done();
            }
            return FrameReport::intra(intra.bits + chroma.bits, psnr);
        }
        self.refs_available = (self.refs_available + 1).min(self.config.params.n_ref);
        self.run_inter(Some(frame))
    }

    /// Encode a whole sequence functionally.
    pub fn encode_sequence(&mut self, frames: &[Frame]) -> EncodeReport {
        let _span = feves_obs::span!(self.rec(), "encode_sequence");
        let reports = frames.iter().map(|f| self.encode_frame(f)).collect();
        EncodeReport::new(self.platform.name.clone(), reports)
    }

    /// The shared inter-frame path (Algorithm 1's loop body), five phases
    /// over one record: plan → measure → execute → emit → close.
    fn run_inter(&mut self, frame: Option<&Frame>) -> FrameReport {
        let _span = feves_obs::span!(self.rec(), "encode_inter");
        let mut params = EncodeParams {
            n_ref: self.refs_available.max(1),
            ..self.config.params
        };
        if let Some(rc) = &self.rate {
            params.qp = rc.qp();
        }
        let planned = self.plan_frame(&params);
        let mut outcome = self.measure(planned);
        // Functional execution with the planned distribution — ahead of
        // emission, so a frame's kernel faults, bits and PSNR are in the
        // same record as its schedule.
        if let (Some(f), ExecutionMode::Functional) = (frame, self.config.mode) {
            self.execute_kernels(f, &params, &mut outcome);
        }
        self.emit(&outcome);
        self.close_frame(outcome, params.n_ref)
    }

    /// DAM plan → VCM graph → simulated schedule of `dist` over `avail`:
    /// one attempt at the frame, with nothing charged to it yet.
    fn attempt(&mut self, avail: Vec<bool>, dist: Distribution, params: &EncodeParams) -> Planned {
        let inter_frame = self.inter_count + 1;
        // Blacklisted accelerators get no transfers; DAM drops their σʳ.
        let mask: Vec<bool> = (self.platform.devices.iter().zip(&avail))
            .map(|(d, &v)| d.is_accelerator() && v)
            .collect();
        let plan = {
            let _span = feves_obs::span!(self.rec(), "dam.plan");
            self.dam.plan(&dist, &mask, self.config.data_reuse)
        };
        let fg = {
            let _span = feves_obs::span!(self.rec(), "vcm.build");
            build_frame_graph(
                &dist,
                &plan,
                &self.platform,
                params,
                self.geometry,
                self.config.overlap,
            )
        };
        let mut speeds = self.speed_multipliers(inter_frame);
        self.injector.overlay_speeds(inter_frame, &mut speeds);
        let sched = simulate(&fg.graph, &self.platform, &speeds, &mut self.noise)
            .expect("VCM-built graphs are deadlock-free by construction");
        Planned {
            tau_s: [fg.tau1, fg.tau2, fg.tau_tot].map(|t| sched.finish_of(t)),
            avail,
            mask,
            dist,
            plan,
            fg,
            sched,
            recovery_s: 0.0,
            sched_overhead_s: 0.0,
            faulty: Vec::new(),
            ft: FtStats::default(),
        }
    }

    /// Phase 1: fault-tolerance bookkeeping (re-admit devices whose
    /// blacklist backoff expired, count newly injected faults), load
    /// balancing, and the detection/recovery loop — simulate the frame; if
    /// a sync-point deadline is missed or a transfer fails, blacklist the
    /// culprit, re-dispatch its MB rows by re-solving Algorithm 2 over the
    /// survivors, and retry. Bounded by the device count: every retry
    /// removes a device or accepts the result.
    fn plan_frame(&mut self, params: &EncodeParams) -> Planned {
        let inter_frame = self.inter_count + 1; // 1-based like Fig 7
        let n_rows = self.geometry.n_rows;
        self.health.tick(inter_frame);
        let mut ft = FtStats {
            injected: self.injector.starting(inter_frame).count() as u64,
            ..FtStats::default()
        };
        // Load balancing (initialization phase falls back to equidistant
        // inside the balancers when uncharacterized).
        let t0 = Instant::now();
        let avail = self.usable_devices();
        let dist = self.balance(n_rows, &avail);
        let mut sched_overhead_s = t0.elapsed().as_secs_f64();
        let mut p = self.attempt(avail, dist, params);
        let mut recovery_s = 0.0f64;
        let mut faulty = vec![false; self.platform.len()];
        for _ in 0..self.platform.len() {
            let Some((fault, wasted)) = self.detect_fault(&p) else {
                break;
            };
            ft.detected += 1;
            // Disambiguation: a deadline miss on a device the drift detector
            // already flagged is most likely the same quiet degradation, not
            // an independent hard fault.
            if matches!(fault.cause, FaultCause::MissedDeadline(_))
                && self.drift.is_flagged(fault.device)
            {
                ft.drift_vs_fault += 1;
            }
            faulty[fault.device] = true;
            if !self.drop_device(fault.device, &mut p.avail) {
                // The last live core cannot be dropped; accept the frame.
                break;
            }
            // The attempt ran until the deadline fired; that virtual time
            // is lost and the frame restarts on the survivors.
            recovery_s += wasted;
            let d = fault.device;
            ft.resolves += 1;
            ft.redispatched_rows += (p.dist.me[d] + p.dist.interp[d] + p.dist.sme[d]) as u64;
            // Fault recovery drains the pipeline to a frame boundary first:
            // any carried stall was measured on the old platform and is
            // forfeit before Algorithm 2 re-solves on the survivors.
            self.quiesce_pipeline();
            let t0 = Instant::now();
            let dist = self.balance(n_rows, &p.avail);
            sched_overhead_s += t0.elapsed().as_secs_f64();
            p = self.attempt(p.avail, dist, params);
        }
        // A detection that led to a re-solve counts as recovered: the
        // retried frame always lands.
        ft.recovered = ft.resolves;
        Planned {
            recovery_s,
            sched_overhead_s,
            faulty,
            ft,
            ..p
        }
    }

    /// Phase 2: the one walk over the accepted schedule. Feeds the
    /// performance characterization (Algorithm 1, lines 5/10), the drift
    /// detector and the pipeline's overlap accounting, and leaves every
    /// number an observer may want in the [`FrameOutcome`] — built every
    /// frame, observed or not: it is a handful of device-long vectors.
    fn measure(&mut self, p: Planned) -> FrameOutcome {
        let n = self.platform.len();
        let Planned {
            dist, fg, sched, ..
        } = &p;
        let mut devices: Vec<DeviceRecord> = (0..n)
            .map(|d| DeviceRecord {
                device: d,
                me_rows: dist.me[d],
                interp_rows: dist.interp[d],
                sme_rows: dist.sme[d],
                predicted_busy_ms: dist.predicted_device.as_ref().map(|lp| lp[d].busy() * 1e3),
                // Plan-time availability, not post-kernel-fault health.
                blacklisted: !p.avail[d],
                ..DeviceRecord::default()
            })
            .collect();
        // Busy ms per device by engine class, and per compute lane (an
        // accelerator's interpolation engine is a lane of its own), summed
        // in start order: these sums are pinned bit for bit by the goldens.
        let mut lanes = vec![[None::<f64>; 2]; n];
        for (id, (device, engine)) in timeline(fg, sched, &self.platform) {
            let busy = sched.finish[id.0] * 1e3 - sched.start[id.0] * 1e3;
            let dev = &mut devices[device];
            if engine >= 2 {
                dev.transfer_busy_ms += busy;
            } else {
                dev.compute_busy_ms += busy;
                let lane = &mut lanes[device][engine];
                *lane = Some(lane.unwrap_or(0.0) + busy);
            }
        }
        let tau_tot_ms = (p.tau_s[2] * 1e3).max(1e-9);

        // Characterization update, and the per-device completion times of
        // the same measured tasks for the overlap accounting.
        let mut rstar = vec![None::<f64>; n];
        let mut completion = CompletionTracker::new(n);
        for m in &fg.measures {
            let dur = sched.duration(m.task);
            match m.kind {
                MeasureKind::Compute {
                    device,
                    module,
                    rows,
                } => self.perf.record_compute(device, module, rows, dur),
                MeasureKind::Transfer {
                    device,
                    tag,
                    dir,
                    rows,
                } => self.perf.record_transfer(device, tag, dir, rows, dur),
                MeasureKind::RstarPart { device } => {
                    rstar[device] = Some(rstar[device].unwrap_or(0.0) + dur)
                }
            }
            let finish = sched.finish_of(m.task);
            completion.record(m.kind.device(), finish, finish <= p.tau_s[0] + 1e-12);
        }
        for (d, t) in rstar.into_iter().enumerate() {
            if let Some(t) = t {
                self.perf.record_rstar(d, t);
            }
        }
        // Overlap against the previous frame's carried stall, computed
        // post-hoc from the simulated schedule. Graph construction, the LP
        // and the noise stream are identical in both modes — the bitstream
        // never depends on the pipeline flag; only the idle attribution and
        // effective times do. This frame's idle tails become the carry.
        completion.set_barrier(p.tau_s[2]);
        let overlap = pipeline::overlap(self.carry.as_deref(), &completion);
        self.carry = self.config.pipeline.then(|| completion.stalls());

        // Prediction audit: per-device signed residuals between the LP's
        // predicted busy time and the measured one feed the drift detector.
        // A firing resets that device's characterization — the rates go
        // NaN, the balancer falls back to an equidistant probe next frame,
        // and the re-measured rates replace the stale model: the
        // init ↔ iterative loop of Algorithm 1, re-entered on demand. Runs
        // *after* this frame's characterization update so the reset
        // survives into the next frame.
        for dev in &mut devices {
            dev.overlap_carried_ms = overlap.recovered_s[dev.device] * 1e3;
            // Blacklisted: a fault-domain problem, not model drift.
            if !dev.blacklisted {
                dev.residual_pct = dev
                    .predicted_busy_ms
                    .and_then(|p| residual_pct(p, dev.compute_busy_ms));
            }
        }
        let residuals: Vec<Option<f64>> = devices.iter().map(|d| d.residual_pct).collect();
        let drift_devices = self.drift.update(&residuals);
        for &d in &drift_devices {
            self.perf.reset_device(d);
        }
        // A flagged device whose residual came back inside the band has been
        // successfully re-characterized: re-arm its detector.
        for (d, r) in residuals.iter().enumerate() {
            if self.drift.is_flagged(d)
                && !drift_devices.contains(&d)
                && r.is_some_and(|pct| pct.abs() <= self.config.drift.band_pct)
            {
                self.drift.clear(d);
            }
        }

        let bytes_transferred = transfer_bytes(&p.plan, self.geometry.width);
        // The one field computed only for an audience — it costs a second
        // DAM plan: what a reuse-free plan of the same frame would have
        // shipped, minus what this plan ships.
        let audited = self.flight.is_some() || self.rec().enabled();
        let bytes_reused = if self.config.data_reuse && audited {
            transfer_bytes(&self.dam.plan(dist, &p.mask, false), self.geometry.width)
                .saturating_sub(bytes_transferred)
        } else {
            0
        };
        let tau_ms = |[tau1, tau2, tau_tot]: [f64; 3]| TauTriple {
            tau1_ms: tau1 * 1e3,
            tau2_ms: tau2 * 1e3,
            tau_tot_ms: tau_tot * 1e3,
        };
        let record = FlightRecord {
            frame: self.inter_count,
            rstar_device: dist.rstar_device,
            predicted_tau: dist
                .predicted
                .map(|lp| tau_ms([lp.tau1, lp.tau2, lp.tau_tot])),
            measured_tau: tau_ms(p.tau_s),
            inflight_depth: overlap.depth_at_submit,
            devices,
            bytes_transferred,
            bytes_reused,
            recovery_ms: p.recovery_s * 1e3,
            recharacterized: !drift_devices.is_empty(),
            drift_devices,
        };
        FrameOutcome {
            planned: p,
            record,
            lane_busy: (lanes.iter().flatten().flatten())
                .map(|busy| busy / tau_tot_ms)
                .collect(),
            overlap_saved_s: overlap.saved_s,
            overlap_recovered_s: overlap.total_recovered_s(),
            bits: None,
            psnr: None,
        }
    }

    /// Phase 4: the only place on the inter path that touches the flight
    /// ring, the session scope or the trace sink, and — the wall-clock spans
    /// `plan_frame` opens around its own calls aside — the recorder.
    /// Everything except the wall-clock scheduling overhead is derived from
    /// the virtual clock and is deterministic for a fixed configuration.
    fn emit(&mut self, out: &FrameOutcome) {
        let (p, r) = (&out.planned, &out.record);
        let tau = r.measured_tau;
        if let Some(flight) = &mut self.flight {
            flight.push(r.clone());
        }
        // Live telemetry: per-device dashboard rows plus the session frame
        // tick, straight into the session's registry.
        if let Some(scope) = &self.scope {
            for d in &r.devices {
                let busy_pct = if tau.tau_tot_ms > 0.0 {
                    (d.compute_busy_ms / tau.tau_tot_ms * 100.0).clamp(0.0, 100.0)
                } else {
                    0.0
                };
                scope.device_sample(d.device, busy_pct, d.residual_pct, d.blacklisted);
            }
            scope.frame_done();
        }
        // Causal tracing: one frame span on the attempt's virtual clock,
        // phase children at the measured sync points, the active kernel
        // family, per-device rate slices, and — when the inter-frame
        // pipeline recovered carried stall — a causal edge from the
        // previous frame span. The frame span's duration is the *effective*
        // time (recovery + τtot − overlap-saved), so consecutive frame
        // spans tile the attempt exactly; the phase children use the raw
        // sync points and may poke past the frame end when overlap saved
        // wall time — that spill *is* the pipeline win, made visible.
        let (mut spans, mut edges) = (0u64, 0u64);
        if let Some(sink) = &self.trace_sink {
            let start = self.trace_cursor_us;
            let dur = (out.effective_s(2) * 1e6).max(0.0);
            let busiest =
                |busy: fn(&DeviceRecord) -> f64| r.devices.iter().map(busy).fold(0.0f64, f64::max);
            let kernel_ms = busiest(|d| d.compute_busy_ms);
            let recovered_ms = out.overlap_recovered_s * 1e3;
            let frame_sink = record_frame(
                sink,
                &format!("frame{}", r.frame),
                start,
                dur,
                tau,
                (r.devices.iter())
                    .map(|d| DeviceSlice {
                        device: d.device,
                        rows: (d.me_rows + d.interp_rows + d.sme_rows) as u64,
                        busy_ms: d.compute_busy_ms,
                    })
                    .collect(),
                &[
                    ("kernel_ms", kernel_ms),
                    ("transfer_ms", busiest(|d| d.transfer_busy_ms)),
                    ("recovered_ms", recovered_ms),
                ],
            );
            let frame_span = frame_sink.ctx.parent_span;
            frame_sink.record("kernels", "kernel", start, kernel_ms * 1e3);
            spans = 5;
            // Recovery is non-zero only with a carry, i.e. at depth 2.
            if let Some(prev) = self.prev_frame_span.filter(|_| recovered_ms > 0.0) {
                sink.link(prev, frame_span, EdgeKind::PipelineOverlap);
                edges = 1;
            }
            self.prev_frame_span = Some(frame_span);
            self.trace_cursor_us = start + dur;
        }
        // Metrics, guarded so the disabled path costs one `enabled()` call.
        let rec = self.rec();
        if !rec.enabled() {
            return;
        }
        rec.observe(Metric::SchedOverheadUs, p.sched_overhead_s * 1e6);
        rec.observe(Metric::FrameTau1Ms, tau.tau1_ms);
        rec.observe(Metric::FrameTau2Ms, tau.tau2_ms);
        rec.observe(Metric::FrameTauTotMs, tau.tau_tot_ms);
        // Two imbalance figures, two populations: the percentage is over
        // compute *lanes*, the Fig-6 index over *devices*.
        let max = out.lane_busy.iter().copied().fold(0.0f64, f64::max);
        if max > 0.0 {
            let min = out.lane_busy.iter().copied().fold(f64::INFINITY, f64::min);
            rec.observe(Metric::LbImbalancePct, (max - min) / max * 100.0);
        }
        if let Some(imb) = r.imbalance_index() {
            rec.observe(Metric::LbImbalanceIndex, imb);
        }
        for pct in r.devices.iter().filter_map(|d| d.residual_pct) {
            rec.observe(Metric::AuditResidualAbsPct, pct.abs());
        }
        if let Some(iters) = p.dist.lp_iterations {
            rec.observe(Metric::LpIterations, iters as f64);
        }
        if r.recovery_ms > 0.0 {
            rec.observe(Metric::FtRecoveryMs, r.recovery_ms);
        }
        if self.config.pipeline {
            rec.observe(Metric::PipelineOverlapUs, out.overlap_saved_s * 1e6);
            rec.observe(
                Metric::PipelineStallRecoveredUs,
                out.overlap_recovered_s * 1e6,
            );
        }
        rec.add(Metric::VcmTasksScheduled, p.fg.graph.len() as u64);
        rec.add(Metric::DamBytesTransferred, r.bytes_transferred);
        if self.config.data_reuse {
            rec.add(Metric::DamBytesReused, r.bytes_reused);
        }
        rec.add(Metric::FramesEncoded, 1);
        for (metric, n) in [
            (Metric::SchedDrift, r.drift_devices.len() as u64),
            (Metric::FtFaultsInjected, p.ft.injected),
            (Metric::FtFaultsDetected, p.ft.detected),
            (Metric::FtFaultsRecovered, p.ft.recovered),
            (Metric::FtResolves, p.ft.resolves),
            (Metric::FtRedispatchedRows, p.ft.redispatched_rows),
            (Metric::FtDriftVsFault, p.ft.drift_vs_fault),
            (Metric::TraceSpans, spans),
            (Metric::TraceEdges, edges),
        ] {
            if n > 0 {
                rec.add(metric, n);
            }
        }
    }

    /// Phase 5: commit the frame into the encoder's state — DAM σʳ, the
    /// fault-tolerance counters, health (clean devices work toward
    /// probation exit), the deadline baseline — and report it.
    fn close_frame(&mut self, out: FrameOutcome, refs_used: usize) -> FrameReport {
        let p = &out.planned;
        self.dam
            .commit(&p.dist, &p.mask, self.config.data_reuse)
            .expect("distribution validated above");
        self.ft_stats += p.ft;
        for d in 0..self.platform.len() {
            if p.avail[d] && !p.faulty[d] {
                self.health.record_success(d);
            }
        }
        // The measured sync points of a clean frame feed the deadline
        // baseline used when no LP prediction is available. Unshifted:
        // deadlines guard the schedule, not the overlap accounting.
        if !p.faulty.contains(&true) {
            let [a, b, c] = p.tau_s;
            self.expected_tau = Some(match self.expected_tau {
                Some((x, y, z)) => (0.5 * (x + a), 0.5 * (y + b), 0.5 * (z + c)),
                None => (a, b, c),
            });
        }
        self.inter_count += 1;
        let report = FrameReport {
            frame: self.inter_count, // 1-based like Fig 7
            is_intra: false,
            tau1: out.effective_s(0),
            tau2: out.effective_s(1),
            tau_tot: out.effective_s(2),
            refs_used,
            sched_overhead: p.sched_overhead_s,
            distribution: Some(p.dist.clone()),
            bits: out.bits,
            psnr_y: out.psnr,
        };
        self.prev_dist = Some(out.planned.dist);
        self.last_schedule = Some((out.planned.fg, out.planned.sched));
        report
    }

    /// Run `kernel` over every MB row of `field_rows` in one region on
    /// `crew` ([`feves_codec::par`]).
    /// The per-device bands of `counts` stay the logical partition — what
    /// the modelled platform is charged for and what a fault is attributed
    /// to — but the host's cores take rows from all bands alike, so they
    /// stay balanced whatever the LP decided for the modelled devices. The
    /// `kernel_panic` injection hook is evaluated once per non-empty band
    /// and fires in that band's first row; a panic in any row of a band
    /// (injected, or a real kernel bug) is caught, that band alone is
    /// recomputed so the field is always complete, and one `StripePanic`
    /// fault per band is returned with the rows it cost.
    fn run_stripes<T: Send>(
        &self,
        crew: &mut Crew,
        counts: &[usize],
        field_rows: &mut [T],
        kernel: impl Fn(RowRange, &mut [T]) + Sync,
    ) -> Vec<(DeviceFault, usize)> {
        let mb_cols = self.geometry.mb_cols;
        let inter_frame = self.inter_count + 1;
        let bands = ranges_from_counts(counts);
        let device_of_row: Vec<usize> = (0..bands.len())
            .flat_map(|d| std::iter::repeat_n(d, bands[d].len()))
            .collect();
        assert_eq!(field_rows.len(), device_of_row.len() * mb_cols);
        let injected: Vec<bool> = (0..bands.len())
            .map(|d| !bands[d].is_empty() && self.injector.kernel_panic(inter_frame, d))
            .collect();
        let panics = crew.try_for_each_row(field_rows.chunks_mut(mb_cols), |row, out| {
            let device = device_of_row[row];
            if injected[device] && row == bands[device].start {
                panic!("injected kernel panic on device {device}");
            }
            kernel(RowRange::new(row, row + 1), out);
        });
        let mut failed: Vec<usize> = panics.iter().map(|p| device_of_row[p.row]).collect();
        failed.dedup(); // panics come in row order, so a band's are adjacent
        failed
            .into_iter()
            .map(|device| {
                let range = bands[device];
                kernel(
                    range,
                    &mut field_rows[range.start * mb_cols..range.end * mb_cols],
                );
                let fault = DeviceFault {
                    device,
                    frame: inter_frame,
                    cause: FaultCause::StripePanic,
                };
                (fault, range.len())
            })
            .collect()
    }

    /// INT: interpolate the pending reconstruction (the rows `dist.interp`
    /// hands out — all of them) and push it as the newest reference.
    /// Returns the buffers this frame reconstructs into.
    ///
    /// Both come out of a reference the window is done with
    /// ([`ReferenceStore::recycle`]). It is taken out *before*
    /// interpolating, so the pending reconstruction's SF is written over its
    /// SF and no more than `n_ref` SFs exist at any time; its planes take
    /// the new reconstruction. Only a window still filling up for the first
    /// time has nothing to recycle and allocates.
    fn advance_references(&mut self, crew: &mut Crew, covered: RowRange) -> ReconPending {
        let padded = self.config.resolution.padded();
        let luma = || Plane::new(padded.width, padded.height);
        let chroma = || Plane::new(padded.width / 2, padded.height / 2);
        let Some(pending) = self.recon_pending.take() else {
            // Nothing to push: the window keeps what it has.
            return ReconPending {
                y: luma(),
                u: chroma(),
                v: chroma(),
            };
        };
        let (y, mut sf, u, v) = match self.store.recycle() {
            Some(done) => (done.plane, done.sf, done.u, done.v),
            None => (
                luma(),
                SubpelFrame::new(padded.width, padded.height),
                chroma(),
                chroma(),
            ),
        };
        sf.interpolate_rows_parallel(crew, &pending.y, covered);
        self.store.push_yuv(pending.y, sf, pending.u, pending.v);
        ReconPending { y, u, v }
    }

    /// Phase 3: run the real kernels and advance the reference store.
    ///
    /// The distribution's bands are the logical partition; the host runs
    /// INT, ME, SME and the R\* row pass (MC, TQ and TQ⁻¹ of a row back to
    /// back, [`feves_codec::recon::code_inter_row`]) one region each over
    /// all MB rows, on the scratch's crew ([`feves_codec::par`]). Row
    /// results do not depend on the split, so neither the host's width nor
    /// a band recomputed after a panic can change the output. The tail is
    /// a fifth region of two lanes ([`feves_codec::recon::code_tail`]):
    /// chroma → entropy beside DBL → PSNR. Bits, PSNR, the rate controller
    /// and fault charging follow both lanes.
    /// A panicking band is reported like any other device fault: charged
    /// to the frame's counters and its device dropped.
    ///
    /// Every buffer a module writes here is reused from the frame before
    /// ([`FrameScratch`], [`Self::advance_references`]) and still holds that
    /// frame's values. Each module covers all rows — `dist.interp` sums to
    /// `n_rows`, the others run over `all` — and a row kernel assigns every
    /// element of its output, so nothing stale survives to be read.
    fn execute_kernels(&mut self, frame: &Frame, params: &EncodeParams, out: &mut FrameOutcome) {
        let dist = &out.planned.dist;
        let cf = frame.y();
        let all = RowRange::new(0, self.geometry.n_rows);
        let mut s = (self.scratch.take()).unwrap_or_else(|| FrameScratch::new(self.geometry));

        let crew = &mut s.crew;
        let interp_rows = RowRange::new(0, dist.interp.iter().sum());
        let mut recon = self.advance_references(crew, interp_rows);
        let rfs = self.store.rf_planes();
        let sfs = self.store.sfs();

        // ME then SME, attributed to one row band per device (`run_stripes`).
        let me_rows = s.me.rows_mut(all);
        let mut kernel_faults = self.run_stripes(crew, &dist.me, me_rows, |range, out| {
            feves_codec::me::motion_estimate_rows(cf, &rfs, params, range, out);
        });
        let (me, sme_rows) = (&s.me, s.sme.rows_mut(all));
        kernel_faults.extend(self.run_stripes(crew, &dist.sme, sme_rows, |range, out| {
            feves_codec::sme::sme_rows(cf, &sfs, me.rows(range), range, out);
        }));

        // R* on the selected device (single-device semantics): MC, TQ and
        // TQ⁻¹ of each MB row back to back, in one region.
        let mb_cols = self.geometry.mb_cols;
        let sme = &s.sme;
        let items = (s.modes.rows_mut(all).chunks_mut(mb_cols))
            .zip(s.coeffs.rows_mut(all).chunks_mut(mb_cols))
            .zip(recon.y.split_mb_rows_mut(all));
        crew.for_each_row(items, |mby, ((modes, coeffs), mut band)| {
            let sme_row = sme.rows(RowRange::new(mby, mby + 1));
            feves_codec::recon::code_inter_row(
                cf, &sfs, sme_row, params.qp, mby, modes, coeffs, &mut band,
            );
        });

        // The tail rides with the R* group (single-device semantics):
        // chroma from the winning luma modes, then entropy, beside DBL,
        // then PSNR.
        let (refs_u, refs_v) = self.store.chroma_refs();
        let n_refs = refs_u.len().min(params.n_ref);
        let (_stream, bits, psnr) = feves_codec::recon::code_tail(
            crew,
            self.config.entropy,
            frame,
            (&refs_u[..n_refs], &refs_v[..n_refs]),
            &s.modes,
            &s.coeffs,
            params.qp,
            &mut s.chroma,
            [&mut recon.y, &mut recon.u, &mut recon.v],
        );

        out.bits = Some(bits);
        out.psnr = Some(psnr);
        self.recon_pending = Some(recon);
        self.scratch = Some(s);
        if let Some(rc) = &mut self.rate {
            rc.update(bits);
        }
        let p = &mut out.planned;
        for (fault, rows) in kernel_faults {
            p.ft.detected += 1;
            p.ft.recovered += 1;
            p.ft.redispatched_rows += rows as u64;
            // A device is charged once per frame, however many of its
            // bands panicked: its SME band after its ME band is one fault.
            if !std::mem::replace(&mut p.faulty[fault.device], true) {
                self.drop_device(fault.device, &mut p.avail);
            }
        }
    }

    /// The accepted attempt's graph and simulated schedule of the most
    /// recent inter-frame — Fig 4 as data, for
    /// [`trace::frame_log`](crate::trace::frame_log) and
    /// [`trace::render_gantt`](crate::trace::render_gantt).
    pub fn last_schedule(&self) -> Option<(&FrameGraph, &Schedule)> {
        self.last_schedule.as_ref().map(|(fg, sched)| (fg, sched))
    }

    /// The last full YUV reconstruction `(Y, Cb, Cr)` (functional mode).
    pub fn last_reconstruction_yuv(&self) -> Option<(&Plane<u8>, &Plane<u8>, &Plane<u8>)> {
        self.recon_pending.as_ref().map(|p| (&p.y, &p.u, &p.v))
    }

    /// Bring the pipeline to a frame boundary: drop the carried τ-sync
    /// stall. Checkpoints must call this before [`snapshot`] — a snapshot
    /// taken with a carry would capture state that straddles two frames.
    /// The frame after a quiesce starts cold (no overlap), which is the
    /// documented cost of a checkpoint under `--pipeline on`.
    ///
    /// [`snapshot`]: FevesEncoder::snapshot
    pub fn quiesce_pipeline(&mut self) {
        self.carry = None;
    }

    /// Capture the complete mutable encoder state for a checkpoint. Cheap
    /// relative to a frame: the only bulk data cloned is the reference
    /// window's reconstructed planes (the ~5× larger SFs are excluded and
    /// re-derived on [`restore`]).
    ///
    /// The pipeline must be quiesced first ([`Self::quiesce_pipeline`]);
    /// [`FrameworkState`] deliberately carries no stall, so a snapshot is
    /// only consistent at a frame boundary.
    ///
    /// [`restore`]: FevesEncoder::restore
    pub fn snapshot(&self) -> FrameworkState {
        assert!(
            self.carry.is_none(),
            "snapshot requires a quiesced pipeline (call quiesce_pipeline first)"
        );
        FrameworkState {
            perf: self.perf.clone(),
            dam_sigma_rem: self.dam.snapshot(),
            noise: self.noise.snapshot(),
            prev_dist: self.prev_dist.clone(),
            inter_count: self.inter_count,
            frames_encoded: self.frames_encoded,
            refs_available: self.refs_available,
            rate: self.rate.as_ref().map(|rc| rc.snapshot()),
            refs: self
                .store
                .entries()
                .map(|e| (e.plane.clone(), e.u.clone(), e.v.clone()))
                .collect(),
            recon_pending: self
                .recon_pending
                .as_ref()
                .map(|p| (p.y.clone(), p.u.clone(), p.v.clone())),
            health: self.health.snapshot(),
            expected_tau: self.expected_tau,
            ft_stats: self.ft_stats,
            drift: self.drift.snapshot(),
        }
    }

    /// Rebuild an encoder mid-sequence from `(platform, config)` plus a
    /// [`FrameworkState`]. The resulting encoder re-enters the iterative
    /// phase exactly where the snapshot was taken — same characterization,
    /// same noise-RNG position, same reference window — so the frames it
    /// encodes from here are bit-identical to an uninterrupted run's.
    ///
    /// Fails with [`FevesError::CheckpointStale`] when the state was taken
    /// for a different device count than `platform` provides or holds
    /// rate-control state exactly when `config` has no rate control, and
    /// [`FevesError::CheckpointCorrupt`] when the state is internally
    /// inconsistent (mismatched vectors, out-of-range values).
    pub fn restore(
        platform: Platform,
        config: EncoderConfig,
        state: FrameworkState,
    ) -> Result<Self, FevesError> {
        let mut enc = Self::new(platform, config)?;
        let n = enc.platform.len();
        if state.perf.n_devices() != n {
            return Err(FevesError::CheckpointStale(format!(
                "characterization is for {} devices, platform has {}",
                state.perf.n_devices(),
                n
            )));
        }
        if state.health.state.len() != n {
            return Err(FevesError::CheckpointStale(format!(
                "health state is for {} devices, platform has {}",
                state.health.state.len(),
                n
            )));
        }
        if let Some(k) = state.prev_dist.as_ref().map(|d| d.me.len()) {
            if k != n {
                return Err(FevesError::CheckpointStale(format!(
                    "warm-start distribution is for {k} devices, platform has {n}"
                )));
            }
        }
        if !(0.0..1.0).contains(&state.noise.amp) {
            return Err(FevesError::CheckpointCorrupt(format!(
                "noise amplitude {} out of [0, 1)",
                state.noise.amp
            )));
        }
        // Every frame's sync points are compared against the baseline: a NaN
        // would make each comparison false and turn fault detection off.
        if let Some((t1, t2, tt)) = state.expected_tau {
            if ![t1, t2, tt].iter().all(|t| t.is_finite() && *t >= 0.0) {
                return Err(FevesError::CheckpointCorrupt(format!(
                    "deadline baseline ({t1}, {t2}, {tt}) is not finite and non-negative"
                )));
            }
        }
        if state.refs.len() > enc.config.params.n_ref {
            return Err(FevesError::CheckpointCorrupt(format!(
                "{} reference frames checkpointed for an n_ref={} window",
                state.refs.len(),
                enc.config.params.n_ref
            )));
        }
        // `encode_frame` leaves a functional window holding exactly
        // `refs_available` pictures, and a pending reconstruction once any
        // frame is coded; the timing model ramps `refs_available` alone.
        if enc.config.mode == ExecutionMode::Functional {
            let (held, ramp) = (state.refs.len(), state.refs_available);
            if held != ramp || (ramp > 0 && state.recon_pending.is_none()) {
                let pending = state.recon_pending.is_some();
                return Err(FevesError::CheckpointCorrupt(format!(
                    "reference window of {held} pictures (pending reconstruction: {pending}) \
                     for refs_available={ramp}"
                )));
            }
        }
        let padded = enc.config.resolution.padded();
        let yuv_ok = |(y, u, v): &(Plane<u8>, Plane<u8>, Plane<u8>)| {
            [(y, 1), (u, 2), (v, 2)]
                .iter()
                .all(|(p, k)| (p.width(), p.height()) == (padded.width / k, padded.height / k))
        };
        if !state.refs.iter().chain(&state.recon_pending).all(yuv_ok) {
            return Err(FevesError::CheckpointStale(
                "picture dimensions do not match the configured resolution".into(),
            ));
        }
        enc.perf = state.perf;
        enc.dam.restore_state(state.dam_sigma_rem)?;
        enc.noise = MultiplicativeNoise::restore(&state.noise);
        enc.prev_dist = state.prev_dist;
        enc.inter_count = state.inter_count;
        enc.frames_encoded = state.frames_encoded;
        enc.refs_available = state.refs_available.min(enc.config.params.n_ref);
        if state.rate.is_some() != enc.config.rate_control.is_some() {
            let why = "rate-control state and configuration disagree on rate control";
            return Err(FevesError::CheckpointStale(why.into()));
        }
        enc.rate = (state.rate.as_ref())
            .map(RateController::from_snapshot)
            .transpose()
            .map_err(FevesError::CheckpointCorrupt)?;
        enc.store = ReferenceStore::rebuild(enc.config.params.n_ref, state.refs);
        enc.recon_pending = state
            .recon_pending
            .map(|(y, u, v)| ReconPending { y, u, v });
        enc.health = HealthTracker::restore(state.health).map_err(FevesError::CheckpointCorrupt)?;
        // The jitter seed is config, not snapshot state; re-apply it so the
        // restored tracker continues the original re-admission timeline.
        enc.health.set_jitter_seed(enc.config.health_jitter);
        enc.expected_tau = state.expected_tau;
        enc.ft_stats = state.ft_stats;
        enc.drift
            .restore_state(state.drift)
            .map_err(FevesError::CheckpointStale)?;
        Ok(enc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_codec::types::{Mv, QpelMv, SearchArea, ALL_PARTITION_MODES};
    use feves_video::geometry::Resolution;
    use feves_video::synth::{SynthConfig, SynthSequence};

    /// QCIF on SysHK, one reference, and a kernel panic injected into
    /// device 1's band of inter frame 2.
    fn encoder() -> FevesEncoder {
        let mut cfg = EncoderConfig::full_hd(EncodeParams {
            search_area: SearchArea(8),
            n_ref: 1,
            ..EncodeParams::default()
        });
        cfg.resolution = Resolution::QCIF;
        cfg.mode = ExecutionMode::Functional;
        cfg.faults = FaultSchedule::parse(&["1:panic@2".to_string()])
            .unwrap()
            .specs;
        FevesEncoder::new(Platform::sys_hk(), cfg).unwrap()
    }

    /// Overwrite every buffer the next inter frame will reuse with `0xAA`
    /// bytes: the scratch set, and the reference the window is about to
    /// evict — with one reference that is the only entry, which nothing
    /// reads again, so a stand-in store of poison takes its place.
    fn poison_reused_buffers(enc: &mut FevesEncoder) {
        let all = RowRange::new(0, enc.geometry.n_rows);
        let (w, h) = (enc.geometry.width, enc.geometry.n_rows * 16);
        let filled = |w: usize, h: usize| {
            let mut p = Plane::new(w, h);
            p.fill(0xAAu8);
            p
        };
        let mut sf = SubpelFrame::new(w, h);
        sf.interpolate_rows(&filled(w, h), all); // a flat plane stays flat in all 16 phases
        assert_eq!(enc.store.len(), 1);
        enc.store = ReferenceStore::new(1);
        enc.store
            .push_yuv(filled(w, h), sf, filled(w / 2, h / 2), filled(w / 2, h / 2));

        let s = enc.scratch.as_mut().expect("an inter frame has run");
        for mb in s.me.rows_mut(all) {
            for b in ALL_PARTITION_MODES
                .iter()
                .flat_map(|m| (0..m.count()).map(move |i| (*m, i)))
            {
                let b = mb.block_mut(b.0, b.1);
                (b.rf, b.mv, b.cost) = (0xAA, Mv::new(-0x5556, -0x5556), 0xAAAA_AAAA);
            }
        }
        for mb in s.sme.rows_mut(all) {
            for b in ALL_PARTITION_MODES
                .iter()
                .flat_map(|m| (0..m.count()).map(move |i| (*m, i)))
            {
                let b = mb.block_mut(b.0, b.1);
                (b.rf, b.mv, b.cost) = (0xAA, QpelMv::new(-0x5556, -0x5556), 0xAAAA_AAAA);
            }
        }
        for mb in s.modes.rows_mut(all) {
            mb.cost = 0xAAAA_AAAA_AAAA_AAAA;
            for b in &mut mb.mvs {
                (b.rf, b.mv, b.cost) = (0xAA, QpelMv::new(-0x5556, -0x5556), 0xAAAA_AAAA);
            }
        }
        for mb in s.coeffs.rows_mut(all) {
            (mb.blocks, mb.coded_mask) = ([[-0x5556; 16]; 16], 0xAAAA);
        }
        for mby in 0..all.end {
            for mbx in 0..enc.geometry.mb_cols {
                let mb = s.chroma.mb_mut(mbx, mby);
                (mb.cb, mb.cr, mb.coded_mask) = ([[-0x5556; 16]; 4], [[-0x5556; 16]; 4], 0xAA);
            }
        }
    }

    #[test]
    fn reused_buffers_never_reach_the_output_even_through_a_panicking_band() {
        let mut seq = SynthSequence::new(SynthConfig::tiny_test());
        let frames = seq.take_frames(5);
        let (mut clean, mut poisoned) = (encoder(), encoder());
        for (i, f) in frames.iter().enumerate() {
            if i >= 2 {
                poison_reused_buffers(&mut poisoned);
            }
            let (a, b) = (clean.encode_frame(f), poisoned.encode_frame(f));
            assert_eq!((a.bits, a.psnr_y), (b.bits, b.psnr_y), "frame {i}");
            assert!(a.bits.is_some_and(|bits| bits > 0));
            let (a, b) = (
                clean.last_reconstruction_yuv(),
                poisoned.last_reconstruction_yuv(),
            );
            assert!(a.is_some() && a == b, "frame {i}: reconstruction");
        }
        // The injected panic did fire — in inter frame 2, the first one
        // over poisoned buffers — and its ME and SME bands were recomputed.
        assert_eq!(clean.ft_stats().recovered, 2);
        assert_eq!(clean.ft_stats(), poisoned.ft_stats());
    }
}
