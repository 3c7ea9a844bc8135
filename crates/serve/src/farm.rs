//! The encode-farm supervisor behind `feves serve`.
//!
//! One long-running loop owns the whole farm:
//!
//! 1. **Spool scan** — new `<spool>/*.json` job specs are admitted into the
//!    bounded [`JobQueue`] or rejected at its high watermark with the typed
//!    queue-full error (recorded in `done/`, counted in
//!    `farm.admission_rejects`).
//! 2. **Dispatch** — up to `max_inflight` sessions run concurrently, each
//!    on its own worker thread behind `catch_unwind`, each holding a
//!    [`SessionCtl`] for preemption and a lease mask from the fleet
//!    partitioner ([`crate::partition`]).
//! 3. **Supervision** — a worker's death (panic or typed failure) never
//!    touches other sessions. An attributed culprit device is recorded in
//!    the *fleet* [`HealthTracker`] (jittered exponential backoff, same
//!    machine the encoder uses per-frame), excluding it from every lease
//!    until re-admission. The job itself retries under the
//!    [`RetryPolicy`]'s budgeted, jittered backoff, resuming from its last
//!    durable checkpoint — bit-exact by the session contract.
//! 4. **Drain** — `SIGTERM`/`SIGINT` or the `ctl/drain` marker stops
//!    admission, preempts in-flight sessions into durable checkpoints, and
//!    exits cleanly. Queued specs stay in the spool; nothing is lost.
//!
//! The farm itself is a telemetry session (label `farm`): queue depth,
//! rejects, retries, completions, failures and the drain latency all land
//! in the live snapshot `feves top` renders.

use crate::job::{self, JobSpec, JobStatus};
use crate::partition;
use crate::queue::JobQueue;
use crate::session::{fleet_platform, run_attempt, verify_artifact, SessionFailure, SessionReport};
use crate::signal;
use crate::ServeError;
use feves_core::session::SessionError;
use feves_core::SessionCtl;
use feves_ft::io::backend_for;
use feves_ft::{HealthTracker, RetryPolicy};
use feves_obs::{
    hub, sweep_orphans, write_atomic_recorded, BusController, EdgeKind, LiveConfig, Metric,
    Recorder, TraceCollector, TraceCtx, TraceSink,
};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Checkpoint cadence for jobs that did not choose one: frequent enough
/// that preemption and retry lose little work on short farm jobs.
pub const DEFAULT_CHECKPOINT_EVERY: usize = 4;

/// Everything `feves serve` configures.
#[derive(Clone, Debug)]
pub struct FarmConfig {
    /// Spool directory (created if missing).
    pub spool: PathBuf,
    /// Named fleet platform the partitioner and fleet health size against.
    pub platform: String,
    /// Hard bound on the admission queue.
    pub queue_cap: usize,
    /// Reject line (clamped into `[1, queue_cap]`).
    pub high_watermark: usize,
    /// In-flight session credits — the second backpressure layer.
    pub max_inflight: usize,
    /// Retries per job after its first attempt.
    pub retry_budget: u32,
    /// Base retry delay; doubles per attempt with decorrelating jitter.
    pub retry_base_ms: u64,
    /// Main-loop poll period (spool scan + event wait).
    pub poll_ms: u64,
    /// Checkpoint cadence for jobs that did not set one.
    pub checkpoint_every: usize,
    /// Exit once the spool, queue and workers are all empty (tests, CI).
    pub exit_when_idle: bool,
    /// Periodic atomic live snapshots for `feves top`.
    pub live_out: Option<PathBuf>,
    /// Snapshot period.
    pub live_every_ms: u64,
    /// Write the farm-wide causal-trace log (trace JSONL) here on exit.
    /// `None` disables tracing entirely — the sessions never see a sink.
    pub trace_out: Option<PathBuf>,
    /// Free-space low watermark (bytes) on the spool filesystem. Below it
    /// the farm enters disk-pressure mode: admission pauses, in-flight
    /// sessions shed cadence checkpoints, `farm.disk_pressure` gauges 1.
    /// Pressure clears automatically when free space recovers. 0 disables.
    pub disk_low_bytes: u64,
}

impl Default for FarmConfig {
    fn default() -> Self {
        FarmConfig {
            spool: PathBuf::from("spool"),
            platform: "syshk".into(),
            queue_cap: 64,
            high_watermark: 64,
            max_inflight: 2,
            retry_budget: 2,
            retry_base_ms: 100,
            poll_ms: 50,
            checkpoint_every: DEFAULT_CHECKPOINT_EVERY,
            exit_when_idle: false,
            live_out: None,
            live_every_ms: 250,
            trace_out: None,
            disk_low_bytes: 0,
        }
    }
}

/// What the farm did over its lifetime, reported on exit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct DrainReport {
    /// Jobs that completed (output finished, spool file removed).
    pub completed: usize,
    /// Jobs that exhausted their retry budget (or had malformed specs).
    pub failed: usize,
    /// Jobs refused at admission.
    pub rejected: usize,
    /// Retry dispatches performed.
    pub retried: usize,
    /// Jobs preempted into a durable checkpoint by the drain.
    pub checkpointed: usize,
    /// True when the exit was a drain (signal or marker), not idleness.
    pub drained: bool,
}

struct Worker {
    job: JobSpec,
    attempt: u32,
    ctl: Arc<SessionCtl>,
    handle: JoinHandle<()>,
}

struct PendingRetry {
    job: JobSpec,
    attempt: u32,
    at: Instant,
}

struct Event {
    id: String,
    result: Result<SessionReport, SessionFailure>,
    /// The failure is the job description's own (unknown platform, empty
    /// input, …): another attempt would fail identically, so none is made.
    bad_job: bool,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".into()
    }
}

fn spawn_worker(
    job: JobSpec,
    attempt: u32,
    tx: mpsc::Sender<Event>,
    trace: Option<TraceSink>,
) -> Worker {
    let ctl = Arc::new(SessionCtl::new());
    let scope = hub().session(&job.id);
    let thread_job = job.clone();
    let thread_ctl = ctl.clone();
    let handle = std::thread::spawn(move || {
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_attempt(&thread_job, &thread_ctl, scope, attempt, trace.clone())
        }));
        let bad_job = matches!(outcome, Ok(Err(SessionError::BadJob(_))));
        let result = match outcome {
            Ok(r) => r.map_err(SessionFailure::from),
            Err(payload) => {
                // A panicking session may take a device's blame with it:
                // the chaos hook attributes its kill explicitly.
                let culprit = if attempt == 0 && thread_job.chaos_kill_at.is_some() {
                    thread_job.chaos_device
                } else {
                    None
                };
                Err(SessionFailure {
                    message: format!("session panicked: {}", panic_message(payload)),
                    culprit,
                })
            }
        };
        // The supervisor owning the receiver may already be gone on a hard
        // teardown; a dead letter is fine then.
        let _ = tx.send(Event {
            id: thread_job.id,
            result,
            bad_job,
        });
    });
    Worker {
        job,
        attempt,
        ctl,
        handle,
    }
}

/// Frames committed by a job's newest checkpoint (0 when none) — used for
/// the drain record of a job that was waiting to retry.
fn checkpointed_frames(job: &JobSpec) -> usize {
    feves_core::load_latest(&job.ckpt_dir())
        .map(|(_, ctx, _, _)| ctx.frames_done)
        .unwrap_or(0)
}

/// Per-job lifecycle state inside the farm tracer. The wall-clock cursor
/// walks forward through admission → queue → attempt/retry … → drain so
/// the lifecycle spans tile the job root span exactly — the invariant the
/// critical-path bucket accounting rests on.
struct JobTrace {
    /// Records the job root span (parents at the sentinel 0).
    root: TraceSink,
    /// Records lifecycle spans under the root.
    sink: TraceSink,
    /// Root span start (admission scan time), µs since the farm epoch.
    started_us: f64,
    /// End of the last lifecycle span emitted.
    cursor_us: f64,
    /// The in-flight attempt's deterministic span id.
    attempt_span: Option<u64>,
    /// When the in-flight attempt's worker spawned.
    attempt_started_us: f64,
    /// The in-flight attempt's span name (`attempt{n}`).
    attempt_name: String,
}

/// Farm-side causal tracing (`feves serve --trace-out`): mints each traced
/// job's deterministic [`TraceCtx`], emits the wall-clock lifecycle spans,
/// links the queue→admit and checkpoint→resume edges, and writes the
/// merged trace JSONL log at exit. Jobs submitted with `--no-trace` are
/// skipped entirely.
struct FarmTracer {
    collector: Arc<TraceCollector>,
    /// The farm epoch all wall-clock spans are relative to.
    epoch: Instant,
    out: PathBuf,
    jobs: HashMap<String, JobTrace>,
    spans: u64,
    edges: u64,
}

impl FarmTracer {
    fn new(out: PathBuf) -> Self {
        FarmTracer {
            collector: Arc::new(TraceCollector::new()),
            epoch: Instant::now(),
            out,
            jobs: HashMap::new(),
            spans: 0,
            edges: 0,
        }
    }

    /// A job cleared admission: open its trace and stamp the admission span.
    fn admitted(&mut self, job: &JobSpec) {
        if !job.trace {
            return;
        }
        let ctx = TraceCtx::for_job(&job.id);
        let root = TraceSink::new(
            self.collector.clone(),
            TraceCtx {
                trace_id: ctx.trace_id,
                parent_span: 0,
            },
            self.epoch,
        );
        let sink = root.under(ctx.parent_span);
        let now = root.now_us();
        sink.record("admission", "admission", now, 0.0);
        self.spans += 1;
        self.jobs.insert(
            job.id.clone(),
            JobTrace {
                root,
                sink,
                started_us: now,
                cursor_us: now,
                attempt_span: None,
                attempt_started_us: now,
                attempt_name: String::new(),
            },
        );
    }

    /// An attempt's worker is about to spawn: close the preceding queue (or
    /// retry-wait) span, link its causal edge, and hand back the sink the
    /// session's frame spans parent under.
    fn spawned(&mut self, job: &JobSpec, attempt: u32) -> Option<TraceSink> {
        let jt = self.jobs.get_mut(&job.id)?;
        let now = jt.sink.now_us();
        let name = format!("attempt{attempt}");
        let (attempt_id, _) = jt.sink.ctx.child(&name);
        if attempt == 0 {
            let q = jt
                .sink
                .record("queue", "queue", jt.cursor_us, now - jt.cursor_us);
            jt.sink.link(q, attempt_id, EdgeKind::QueueAdmit);
            self.spans += 1;
            self.edges += 1;
        } else {
            jt.sink.record(
                &format!("retry{attempt}"),
                "retry",
                jt.cursor_us,
                now - jt.cursor_us,
            );
            self.spans += 1;
            // The retry resumes from the newest durable checkpoint span;
            // a crash before any checkpoint falls back to the dead attempt
            // itself as the cause.
            let from = self
                .collector
                .last_span_of(jt.sink.ctx.trace_id, "checkpoint")
                .or(jt.attempt_span);
            if let Some(f) = from {
                jt.sink.link(f, attempt_id, EdgeKind::CheckpointResume);
                self.edges += 1;
            }
        }
        jt.attempt_started_us = now;
        jt.attempt_name = name;
        jt.attempt_span = Some(attempt_id);
        jt.cursor_us = now;
        Some(jt.sink.under(attempt_id))
    }

    /// An attempt's terminal event arrived: close its span.
    fn attempt_done(&mut self, job_id: &str) {
        let Some(jt) = self.jobs.get_mut(job_id) else {
            return;
        };
        let now = jt.sink.now_us();
        if jt.attempt_span.is_some() {
            jt.sink.record(
                &jt.attempt_name,
                "attempt",
                jt.attempt_started_us,
                now - jt.attempt_started_us,
            );
            self.spans += 1;
        }
        jt.cursor_us = now;
    }

    /// The job reached a terminal state (done record on disk): stamp the
    /// drain span and close the root.
    fn closed(&mut self, job_id: &str) {
        let Some(jt) = self.jobs.remove(job_id) else {
            return;
        };
        let now = jt.sink.now_us();
        jt.sink
            .record("drain", "drain", jt.cursor_us, now - jt.cursor_us);
        jt.root.record(
            &format!("job:{job_id}"),
            "job",
            jt.started_us,
            now - jt.started_us,
        );
        self.spans += 2;
    }

    /// Close any still-open traces, write the log, publish the counters.
    fn finish(&mut self, farm: &dyn Recorder) -> Result<(), ServeError> {
        let open: Vec<String> = self.jobs.keys().cloned().collect();
        for id in open {
            self.closed(&id);
        }
        write_atomic_recorded(&self.out, self.collector.to_jsonl(), farm)?;
        farm.add(Metric::TraceSpans, self.spans);
        farm.add(Metric::TraceEdges, self.edges);
        Ok(())
    }
}

/// Run the farm until drained (signal or `ctl/drain` marker) or — with
/// `exit_when_idle` — until there is nothing left to do.
pub fn run(cfg: FarmConfig) -> Result<DrainReport, ServeError> {
    signal::install_handlers();
    let spool = cfg.spool.clone();
    std::fs::create_dir_all(&spool)?;
    std::fs::create_dir_all(job::done_dir(&spool))?;
    std::fs::create_dir_all(job::ctl_dir(&spool))?;
    // A previous daemon that died mid-write leaves `.*.tmp` droppings from
    // the atomic-write protocol; sweep them before the first scan so they
    // never masquerade as control files.
    for dir in [&spool, &job::done_dir(&spool), &job::ctl_dir(&spool)] {
        let _ = sweep_orphans(dir);
    }

    let platform = fleet_platform(&cfg.platform)?;
    let accel: Vec<bool> = platform
        .devices
        .iter()
        .map(|d| d.is_accelerator())
        .collect();
    // Fleet health runs in dispatch rounds (one per poll), with jitter so a
    // farm restart does not re-probe a flaky device in lockstep with the
    // per-session trackers.
    let mut fleet_health = HealthTracker::new(platform.devices.len(), 4, 3);
    fleet_health.set_jitter_seed(Some(0xFA23));

    let farm_scope = hub().session("farm");
    let farm = farm_scope.metrics();
    let mut bus = cfg.live_out.clone().map(|path| {
        let ctl = BusController::start(
            1 << 12,
            Some(LiveConfig {
                path,
                period: Duration::from_millis(cfg.live_every_ms.max(1)),
            }),
        );
        farm_scope.attach_bus(ctl.bus());
        ctl
    });

    let mut tracer = cfg.trace_out.clone().map(FarmTracer::new);
    let mut queue = JobQueue::new(cfg.queue_cap, cfg.high_watermark);
    let mut seen: HashSet<String> = HashSet::new();
    let mut spool_file: HashMap<String, PathBuf> = HashMap::new();
    let mut workers: Vec<Worker> = Vec::new();
    let mut retries: Vec<PendingRetry> = Vec::new();
    let (tx, rx) = mpsc::channel::<Event>();
    let mut report = DrainReport::default();
    let mut draining = false;
    let mut drain_started: Option<Instant> = None;
    let mut disk_pressure = false;
    let mut round: usize = 0;

    let finish_spool_file = |spool_file: &mut HashMap<String, PathBuf>, id: &str| {
        if let Some(path) = spool_file.remove(id) {
            let _ = std::fs::remove_file(path);
        }
    };

    loop {
        round += 1;
        fleet_health.tick(round);

        if !draining && (signal::shutdown_requested() || job::drain_marker(&spool).exists()) {
            draining = true;
            drain_started = Some(Instant::now());
            // Stop admitting; preempt every in-flight session at its next
            // frame boundary. Queued specs stay on disk untouched.
            for w in &workers {
                w.ctl.request_stop();
            }
        }

        // ENOSPC-aware degradation: below the low watermark, stop admitting
        // new work and shed cadence checkpoints; in-flight jobs keep
        // encoding (their final commit and preemption checkpoints still
        // run). Pressure clears itself when free space recovers — queued
        // specs wait in the spool, nothing is lost either way.
        if cfg.disk_low_bytes > 0 {
            let free = backend_for(&spool).free_space(&spool).unwrap_or(u64::MAX);
            let pressured = free < cfg.disk_low_bytes;
            if pressured != disk_pressure {
                disk_pressure = pressured;
                farm.gauge(Metric::FarmDiskPressure, if pressured { 1.0 } else { 0.0 });
            }
        }

        if !draining && !disk_pressure {
            scan_spool(
                &spool,
                &mut seen,
                &mut spool_file,
                &mut queue,
                &mut report,
                farm.as_ref(),
                &mut tracer,
            )?;
            let now = Instant::now();
            while workers.len() < cfg.max_inflight.max(1) {
                if let Some(pos) = retries.iter().position(|r| r.at <= now) {
                    let r = retries.remove(pos);
                    report.retried += 1;
                    farm.add(Metric::FarmRetries, 1);
                    let sink = tracer.as_mut().and_then(|t| t.spawned(&r.job, r.attempt));
                    workers.push(spawn_worker(r.job, r.attempt, tx.clone(), sink));
                } else {
                    break;
                }
            }
            while workers.len() < cfg.max_inflight.max(1) {
                match queue.pop() {
                    Some(j) => {
                        let sink = tracer.as_mut().and_then(|t| t.spawned(&j, 0));
                        workers.push(spawn_worker(j, 0, tx.clone(), sink));
                    }
                    None => break,
                }
            }
        }

        // Re-lease on every round: arrivals, completions and fleet faults
        // all change the fair share, and recomputation is cheap.
        let leases = partition::fair_leases(&accel, &fleet_health.available(), workers.len());
        for (w, lease) in workers.iter().zip(leases) {
            w.ctl.set_lease(Some(lease));
            w.ctl.set_ckpt_shed(disk_pressure);
        }
        farm.gauge(Metric::FarmQueueDepth, queue.len() as f64);

        match rx.recv_timeout(Duration::from_millis(cfg.poll_ms.max(1))) {
            Ok(event) => {
                let Some(pos) = workers.iter().position(|w| w.job.id == event.id) else {
                    continue;
                };
                let worker = workers.remove(pos);
                let _ = worker.handle.join();
                if let Some(t) = tracer.as_mut() {
                    t.attempt_done(&worker.job.id);
                }
                // Verify-before-completed: a clean finish only counts once
                // the on-disk artifact re-reads byte-exact against the CRC
                // streamed on the write path. A mismatch (bit-rot, torn
                // write) is demoted to a session failure — the retry path
                // re-encodes rather than blessing a corrupt artifact.
                let result = match event.result {
                    Ok(rep) if !rep.interrupted => {
                        match verify_artifact(&worker.job.output, rep.out_bytes, rep.artifact_crc) {
                            Ok(()) => Ok(rep),
                            Err(msg) => {
                                farm.add(Metric::IoCorruptRejected, 1);
                                Err(SessionFailure {
                                    message: msg,
                                    culprit: None,
                                })
                            }
                        }
                    }
                    other => other,
                };
                match result {
                    Ok(rep) if rep.interrupted => {
                        job::write_done(
                            &spool,
                            &worker.job.id,
                            &JobStatus::Checkpointed {
                                frames_done: rep.frames_done,
                            },
                            worker.attempt + 1,
                            farm.as_ref(),
                        )?;
                        report.checkpointed += 1;
                        if let Some(t) = tracer.as_mut() {
                            t.closed(&worker.job.id);
                        }
                    }
                    Ok(rep) => {
                        job::write_done(
                            &spool,
                            &worker.job.id,
                            &JobStatus::Completed {
                                frames: rep.frames_done,
                                bytes: rep.out_bytes,
                                crc32: rep.artifact_crc,
                            },
                            worker.attempt + 1,
                            farm.as_ref(),
                        )?;
                        finish_spool_file(&mut spool_file, &worker.job.id);
                        report.completed += 1;
                        farm.add(Metric::FarmJobsCompleted, 1);
                        if let Some(t) = tracer.as_mut() {
                            t.closed(&worker.job.id);
                        }
                    }
                    Err(failure) => {
                        if let Some(device) = failure.culprit {
                            if device < accel.len() {
                                fleet_health.record_fault(device, round);
                            }
                        }
                        let policy = RetryPolicy::new(
                            Duration::from_millis(cfg.retry_base_ms),
                            cfg.retry_budget,
                            worker.job.seed(),
                        );
                        if policy.allows(worker.attempt) && !draining && !event.bad_job {
                            retries.push(PendingRetry {
                                job: worker.job,
                                attempt: worker.attempt + 1,
                                at: Instant::now() + policy.delay(worker.attempt),
                            });
                        } else {
                            job::write_done(
                                &spool,
                                &worker.job.id,
                                &JobStatus::Failed {
                                    error: failure.message,
                                    culprit: failure.culprit,
                                },
                                worker.attempt + 1,
                                farm.as_ref(),
                            )?;
                            finish_spool_file(&mut spool_file, &worker.job.id);
                            report.failed += 1;
                            farm.add(Metric::FarmJobsFailed, 1);
                            if let Some(t) = tracer.as_mut() {
                                t.closed(&worker.job.id);
                            }
                        }
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("farm holds a sender"),
        }

        if draining && workers.is_empty() {
            // Jobs waiting on a retry timer hold a durable checkpoint and
            // their spool file: record them as checkpointed for the next
            // daemon.
            for r in retries.drain(..) {
                job::write_done(
                    &spool,
                    &r.job.id,
                    &JobStatus::Checkpointed {
                        frames_done: checkpointed_frames(&r.job),
                    },
                    r.attempt,
                    farm.as_ref(),
                )?;
                report.checkpointed += 1;
                if let Some(t) = tracer.as_mut() {
                    t.closed(&r.job.id);
                }
            }
            report.drained = true;
            break;
        }
        if cfg.exit_when_idle
            && !draining
            // Never idle-exit under disk pressure: unscanned specs are
            // waiting in the spool for the pressure to clear.
            && !disk_pressure
            && workers.is_empty()
            && retries.is_empty()
            && queue.is_empty()
        {
            // One more scan so a submit racing the last completion wins.
            scan_spool(
                &spool,
                &mut seen,
                &mut spool_file,
                &mut queue,
                &mut report,
                farm.as_ref(),
                &mut tracer,
            )?;
            if queue.is_empty() {
                break;
            }
        }
    }

    if let Some(t0) = drain_started {
        farm.observe(Metric::FarmDrainMs, t0.elapsed().as_secs_f64() * 1e3);
    }
    if let Some(t) = tracer.as_mut() {
        t.finish(farm.as_ref())?;
    }
    farm.gauge(Metric::FarmQueueDepth, queue.len() as f64);
    if let Some(ctl) = bus.as_mut() {
        // Stops the drain thread, flushing the final live snapshot with the
        // farm counters and every retired session.
        ctl.stop();
    }
    Ok(report)
}

/// Pull new job specs out of the spool: admit, or reject with the typed
/// queue-full error. Scanning is name-sorted so admission order (and the
/// acceptance tests) are deterministic.
fn scan_spool(
    spool: &std::path::Path,
    seen: &mut HashSet<String>,
    spool_file: &mut HashMap<String, PathBuf>,
    queue: &mut JobQueue,
    report: &mut DrainReport,
    farm: &dyn Recorder,
    tracer: &mut Option<FarmTracer>,
) -> Result<(), ServeError> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(spool)?
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    paths.sort();
    for path in paths {
        let name = match path.file_name().and_then(|n| n.to_str()) {
            Some(n) => n.to_string(),
            None => continue,
        };
        if seen.contains(&name) {
            continue;
        }
        let spec = match job::read_spec(&path) {
            // Vanished between listing and read, or a read the disk may
            // yet serve: the name stays unseen and the next scan looks
            // again — the spec is still queued, in the spool.
            Err(ServeError::Io(_)) => continue,
            other => other,
        };
        seen.insert(name.clone());
        match spec {
            Err(e) => {
                // Reject, never crash: a corrupt spec (checksum mismatch)
                // is quarantined for inspection; a merely invalid one is
                // removed. Both get a typed `failed` done record.
                let corrupt = matches!(e, ServeError::Corrupt(_));
                let id = name.trim_end_matches(".json");
                job::write_done(
                    spool,
                    id,
                    &JobStatus::Failed {
                        error: e.to_string(),
                        culprit: None,
                    },
                    0,
                    farm,
                )?;
                if corrupt {
                    farm.add(Metric::IoCorruptRejected, 1);
                    let _ = job::quarantine(spool, &path);
                } else {
                    let _ = std::fs::remove_file(&path);
                }
                report.failed += 1;
                farm.add(Metric::FarmJobsFailed, 1);
            }
            Ok(spec) => {
                let id = spec.id.clone();
                spool_file.insert(id.clone(), path.clone());
                let admitted = spec.clone();
                match queue.admit(spec) {
                    Ok(()) => {
                        if let Some(t) = tracer.as_mut() {
                            t.admitted(&admitted);
                        }
                    }
                    Err(e) => {
                        job::write_done(
                            spool,
                            &id,
                            &JobStatus::Rejected {
                                reason: e.to_string(),
                            },
                            0,
                            farm,
                        )?;
                        spool_file.remove(&id);
                        let _ = std::fs::remove_file(&path);
                        report.rejected += 1;
                        farm.add(Metric::FarmAdmissionRejects, 1);
                    }
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::run_session;
    use feves_video::geometry::Resolution;
    use feves_video::synth::{SynthConfig, SynthSequence};
    use feves_video::y4m::{Y4mHeader, Y4mWriter};
    use std::path::Path;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-farm-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_input(path: &Path, n_frames: usize) {
        let mut seq = SynthSequence::new(SynthConfig {
            resolution: Resolution::QCIF,
            seed: 11,
            objects: 4,
            pan: (1.0, 0.5),
            noise: 2,
        });
        let frames = seq.take_frames(n_frames);
        let header = Y4mHeader {
            resolution: frames[0].resolution(),
            fps: (25, 1),
        };
        let mut w = Y4mWriter::new(Vec::new(), header);
        for f in &frames {
            w.write_frame(f).unwrap();
        }
        std::fs::write(path, w.finish().unwrap()).unwrap();
    }

    fn submit(dir: &Path, id: &str, chaos: Option<usize>) -> JobSpec {
        let job = JobSpec {
            id: id.into(),
            input: dir.join("in.y4m").to_string_lossy().into_owned(),
            output: dir.join(format!("{id}.y4m")).to_string_lossy().into_owned(),
            sa: 16,
            refs: 2,
            checkpoint_every: 2,
            chaos_kill_at: chaos,
            chaos_device: chaos.map(|_| 0),
            ..JobSpec::default()
        };
        job::write_job(&dir.join("spool"), &job).unwrap();
        job
    }

    fn farm_cfg(dir: &Path) -> FarmConfig {
        FarmConfig {
            spool: dir.join("spool"),
            exit_when_idle: true,
            poll_ms: 10,
            retry_base_ms: 10,
            ..FarmConfig::default()
        }
    }

    fn done_text(dir: &Path, id: &str) -> String {
        std::fs::read_to_string(job::done_dir(&dir.join("spool")).join(format!("{id}.json")))
            .unwrap()
    }

    #[test]
    fn farm_completes_jobs_and_matches_direct_session_output() {
        signal::reset();
        let dir = scratch("complete");
        write_input(&dir.join("in.y4m"), 6);
        let a = submit(&dir, "a", None);
        let b = submit(&dir, "b", None);
        let report = run(farm_cfg(&dir)).unwrap();
        assert_eq!(report.completed, 2, "{report:?}");
        assert_eq!(report.failed + report.rejected, 0);
        assert!(!report.drained);
        assert!(done_text(&dir, "a").contains("\"completed\""));
        // Outputs must be byte-identical to an unsupervised session.
        let direct = JobSpec {
            id: "direct".into(),
            output: dir.join("direct.y4m").to_string_lossy().into_owned(),
            ..a.clone()
        };
        let ctl = Arc::new(SessionCtl::new());
        run_session(&direct, &ctl, hub().session("direct"), 0, None).unwrap();
        assert_eq!(
            std::fs::read(&a.output).unwrap(),
            std::fs::read(&direct.output).unwrap()
        );
        assert_eq!(
            std::fs::read(&a.output).unwrap(),
            std::fs::read(&b.output).unwrap()
        );
        // Completed spool files are gone; the spool is clean.
        assert!(!dir.join("spool").join("a.json").exists());
    }

    #[test]
    fn chaos_killed_job_retries_to_bit_exact_completion() {
        signal::reset();
        let dir = scratch("chaos");
        write_input(&dir.join("in.y4m"), 6);
        let clean = submit(&dir, "clean", None);
        let chaotic = submit(&dir, "chaotic", Some(3));
        let report = run(farm_cfg(&dir)).unwrap();
        assert_eq!(report.completed, 2, "{report:?}");
        assert_eq!(report.retried, 1, "chaos kill must cost exactly one retry");
        let done = done_text(&dir, "chaotic");
        assert!(done.contains("\"completed\""));
        assert!(done.contains("\"attempts\": 2"), "{done}");
        assert_eq!(
            std::fs::read(&chaotic.output).unwrap(),
            std::fs::read(&clean.output).unwrap(),
            "retried output must be bit-identical to the clean job"
        );
    }

    #[test]
    fn exhausted_retry_budget_fails_with_culprit_attribution() {
        signal::reset();
        let dir = scratch("budget");
        write_input(&dir.join("in.y4m"), 6);
        // chaos_kill_at fires on attempt 0 only, so force budget 0 to make
        // the first death terminal.
        submit(&dir, "doomed", Some(1));
        let cfg = FarmConfig {
            retry_budget: 0,
            ..farm_cfg(&dir)
        };
        let report = run(cfg).unwrap();
        assert_eq!((report.completed, report.failed), (0, 1), "{report:?}");
        let done = done_text(&dir, "doomed");
        assert!(done.contains("\"failed\""), "{done}");
        assert!(done.contains("panicked"), "{done}");
        assert!(done.contains("\"culprit\": 0"), "{done}");
    }

    #[test]
    fn bad_job_descriptions_fail_once_without_retries() {
        signal::reset();
        let dir = scratch("badjob");
        write_input(&dir.join("in.y4m"), 4);
        std::fs::write(
            dir.join("empty.y4m"),
            "YUV4MPEG2 W176 H144 F25:1 Ip A1:1 C420jpeg\n",
        )
        .unwrap();
        let spool = dir.join("spool");
        let bad = |id: &str, edit: &dyn Fn(&mut JobSpec)| {
            let mut job = submit(&dir, id, None);
            edit(&mut job);
            job::write_job(&spool, &job).unwrap();
        };
        bad("balancer", &|j| j.balancer = "bogus".into());
        bad("platform", &|j| j.platform = "sysxx".into());
        bad("fault", &|j| j.faults = vec!["not-a-spec".into()]);
        bad("empty", &|j| {
            j.input = dir.join("empty.y4m").to_string_lossy().into_owned()
        });
        // A missing input is not the job's fault (storage may come back):
        // it keeps its retries.
        bad("missing", &|j| {
            j.input = dir.join("gone.y4m").to_string_lossy().into_owned()
        });
        let report = run(farm_cfg(&dir)).unwrap();
        assert_eq!((report.completed, report.failed), (0, 5), "{report:?}");
        assert_eq!(report.retried, 2, "only the missing input may retry");
        for (id, why) in [
            ("balancer", "unknown balancer 'bogus'"),
            ("platform", "unknown platform 'sysxx'"),
            ("fault", "not-a-spec"),
            ("empty", "empty input"),
        ] {
            let done = done_text(&dir, id);
            assert!(done.contains("\"failed\"") && done.contains(why), "{done}");
            assert!(done.contains("\"attempts\": 1"), "{id}: {done}");
        }
        assert!(done_text(&dir, "missing").contains("\"attempts\": 3"));
    }

    #[test]
    fn damaged_specs_are_quarantined_with_a_failed_done_record() {
        signal::reset();
        let dir = scratch("damaged");
        let spool = dir.join("spool");
        // A flipped ASCII bit fails the checksum; a flipped high bit is not
        // even UTF-8. Neither may be skipped silently.
        let damaged = [
            ("ascii", 0x20, "checksum mismatch"),
            ("highbit", 0x80, "not UTF-8"),
        ];
        for (id, flip, _) in damaged {
            submit(&dir, id, None);
            let path = spool.join(format!("{id}.json"));
            let mut bytes = std::fs::read(&path).unwrap();
            bytes[10] ^= flip;
            std::fs::write(&path, &bytes).unwrap();
        }
        let report = run(farm_cfg(&dir)).unwrap();
        assert_eq!((report.completed, report.failed), (0, 2), "{report:?}");
        for (id, _, why) in damaged {
            let done = done_text(&dir, id);
            assert!(done.contains("\"failed\"") && done.contains(why), "{done}");
            let name = format!("{id}.json");
            assert!(job::quarantine_dir(&spool).join(&name).exists(), "{id}");
            assert!(!spool.join(&name).exists(), "{id}: still in the spool");
        }
    }

    #[test]
    fn admission_rejects_above_high_watermark_with_done_records() {
        signal::reset();
        let dir = scratch("admission");
        write_input(&dir.join("in.y4m"), 4);
        for i in 0..5 {
            submit(&dir, &format!("j{i}"), None);
        }
        let cfg = FarmConfig {
            queue_cap: 2,
            high_watermark: 2,
            max_inflight: 1,
            ..farm_cfg(&dir)
        };
        let report = run(cfg).unwrap();
        // Name-sorted scan: j0 and j1 admitted, j2..j4 rejected before the
        // first dispatch can free a slot.
        assert_eq!((report.completed, report.rejected), (2, 3), "{report:?}");
        let done = done_text(&dir, "j2");
        assert!(done.contains("\"rejected\""), "{done}");
        assert!(done.contains("queue full"), "{done}");
    }

    #[test]
    fn trace_out_writes_a_valid_span_dag_with_resume_edges() {
        signal::reset();
        let dir = scratch("trace");
        write_input(&dir.join("in.y4m"), 6);
        submit(&dir, "clean", None);
        submit(&dir, "killed", Some(3));
        let cfg = FarmConfig {
            trace_out: Some(dir.join("trace.jsonl")),
            ..farm_cfg(&dir)
        };
        let report = run(cfg).unwrap();
        assert_eq!(report.completed, 2, "{report:?}");
        let text = std::fs::read_to_string(dir.join("trace.jsonl")).unwrap();
        assert!(feves_obs::TraceLog::sniff(&text));
        let log = feves_obs::TraceLog::parse_jsonl(&text).unwrap();
        feves_obs::validate_dag(&log).unwrap();
        assert_eq!(log.trace_ids().len(), 2, "one trace per job");
        // The chaos-killed job's retry must route through a resume edge.
        let killed = feves_obs::trace::fnv1a64(b"killed");
        assert!(
            log.edges
                .iter()
                .any(|e| e.trace_id == killed && e.kind == feves_obs::EdgeKind::CheckpointResume),
            "retried job must carry a checkpoint→resume edge"
        );
        // Sessions contributed frame spans under the attempts.
        assert!(log.spans.iter().any(|s| s.cat == "frame"));
        // Critical-path buckets tile each job's wall time.
        let crit = feves_obs::CriticalReport::from_log(&log).unwrap();
        for j in &crit.jobs {
            assert!(
                (j.bucket_sum_us() - j.wall_us).abs() <= j.wall_us * 0.01 + 1.0,
                "{}: buckets {} vs wall {}",
                j.name,
                j.bucket_sum_us(),
                j.wall_us
            );
        }
    }

    #[test]
    fn drain_marker_preempts_and_loses_nothing() {
        signal::reset();
        let dir = scratch("drain");
        write_input(&dir.join("in.y4m"), 6);
        let j = submit(&dir, "draining", None);
        // Pre-place the drain marker: the farm must stop admission, so the
        // job's spool file survives for the next daemon.
        std::fs::create_dir_all(job::ctl_dir(&dir.join("spool"))).unwrap();
        std::fs::write(job::drain_marker(&dir.join("spool")), "drain\n").unwrap();
        let cfg = FarmConfig {
            exit_when_idle: false,
            ..farm_cfg(&dir)
        };
        let report = run(cfg).unwrap();
        assert!(report.drained);
        assert_eq!(report.completed, 0);
        assert!(
            dir.join("spool").join("draining.json").exists(),
            "a queued job must survive the drain"
        );
        // A fresh daemon (marker removed) picks the job up and finishes it.
        std::fs::remove_file(job::drain_marker(&dir.join("spool"))).unwrap();
        let report = run(farm_cfg(&dir)).unwrap();
        assert_eq!(report.completed, 1, "{report:?}");
        assert!(std::fs::metadata(&j.output).unwrap().len() > 0);
    }
}
