//! The encode-farm supervisor behind `feves serve`.
//!
//! One `Farm` owns the whole farm and runs one loop, a round per poll:
//!
//! 1. **Spool scan** — new `<spool>/*.json` job specs are admitted into the
//!    bounded [`JobQueue`], or rejected at its bound with the typed
//!    queue-full error.
//! 2. **Dispatch** — up to `max_inflight` sessions run concurrently, each
//!    on its own worker thread behind `catch_unwind`, each holding a
//!    [`SessionCtl`] for preemption and a lease mask from the fleet
//!    partitioner ([`crate::partition`]). `Farm::start` is the one place an
//!    attempt starts, first or retried.
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
//! Every job ends in `Farm::settle`: it writes the job's done record, then
//! books the status in the [`DrainReport`] and its `farm.*` counter, removes
//! the spool file of a finished job and closes the job's trace.
//!
//! The farm itself is a telemetry session (label `farm`): queue depth,
//! rejects, retries, completions, failures and the drain latency all land
//! in the live snapshot `feves top` renders.

use crate::job::{self, JobSpec, JobStatus};
use crate::partition;
use crate::queue::JobQueue;
use crate::session::{fleet_platform, run_session, verify_artifact, SessionFailure, SessionReport};
use crate::signal;
use crate::ServeError;
use feves_core::session::SessionError;
use feves_core::SessionCtl;
use feves_ft::io::backend_for;
use feves_ft::{HealthTracker, RetryPolicy};
use feves_hetsim::platform::Platform;
use feves_obs::{
    hub, sweep_orphans, write_atomic_recorded, EdgeKind, LiveConfig, LiveWriter, MemoryRecorder,
    Metric, Recorder, TraceCollector, TraceCtx, TraceSink,
};
use std::collections::{HashMap, HashSet};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::mpsc;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Everything `feves serve` configures.
#[derive(Clone, Debug)]
pub struct FarmConfig {
    /// Spool directory (created if missing).
    pub spool: PathBuf,
    /// Named fleet platform the partitioner and fleet health size against.
    pub platform: String,
    /// The admission bound: a spec that arrives while this many jobs are
    /// queued is rejected.
    pub queue_cap: usize,
    /// In-flight session credits — the second backpressure layer.
    pub max_inflight: usize,
    /// Retries per job after its first attempt.
    pub retry_budget: u32,
    /// Base retry delay; doubles per attempt with decorrelating jitter.
    pub retry_base_ms: u64,
    /// Main-loop poll period (spool scan + event wait).
    pub poll_ms: u64,
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
            max_inflight: 2,
            retry_budget: 2,
            retry_base_ms: 100,
            poll_ms: 50,
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
    let spool = &cfg.spool;
    for dir in [spool.clone(), job::done_dir(spool), job::ctl_dir(spool)] {
        std::fs::create_dir_all(&dir)?;
        // A previous daemon that died mid-write leaves `.*.tmp` droppings
        // from the atomic-write protocol; sweep them before the first scan
        // so they never masquerade as control files.
        let _ = sweep_orphans(&dir);
    }
    let platform = fleet_platform(&cfg.platform)?;
    let scope = hub().session("farm");
    let mut live = cfg.live_out.clone().map(|path| {
        LiveWriter::start(LiveConfig {
            path,
            period: Duration::from_millis(cfg.live_every_ms.max(1)),
        })
    });
    let mut farm = Farm::new(cfg, &platform, scope.metrics());
    farm.supervise()?;
    let report = farm.finish()?;
    if let Some(writer) = live.as_mut() {
        // The final live snapshot, with the farm counters and every retired
        // session.
        writer.stop();
    }
    Ok(report)
}

/// The supervisor's state between rounds: the admission queue, the spool
/// files of live jobs, the workers in flight and the retries waiting on a
/// timer, plus what the farm reports, traces and knows of fleet health.
struct Farm {
    cfg: FarmConfig,
    /// Which platform devices are accelerators (the partitioner's input).
    accel: Vec<bool>,
    /// Fleet health runs in dispatch rounds (one per poll).
    fleet_health: HealthTracker,
    round: usize,
    /// The `farm` telemetry session's registry.
    metrics: Arc<MemoryRecorder>,
    tracer: Option<FarmTracer>,
    queue: JobQueue,
    /// Spool file names already read: each spec is admitted at most once
    /// per daemon.
    seen: HashSet<String>,
    /// The spool file of every admitted job that has not settled yet.
    spool_file: HashMap<String, PathBuf>,
    workers: Vec<Worker>,
    retries: Vec<PendingRetry>,
    tx: mpsc::Sender<Event>,
    rx: mpsc::Receiver<Event>,
    report: DrainReport,
    /// Set when a signal or the `ctl/drain` marker asked the farm to drain.
    drain_started: Option<Instant>,
    disk_pressure: bool,
}

impl Farm {
    fn new(cfg: FarmConfig, platform: &Platform, metrics: Arc<MemoryRecorder>) -> Self {
        // Jittered, so a farm restart does not re-probe a flaky device in
        // lockstep with the per-session trackers.
        let mut fleet_health = HealthTracker::new(platform.devices.len(), 4, 3);
        fleet_health.set_jitter_seed(Some(0xFA23));
        let (tx, rx) = mpsc::channel();
        Farm {
            accel: platform
                .devices
                .iter()
                .map(|d| d.is_accelerator())
                .collect(),
            fleet_health,
            round: 0,
            metrics,
            tracer: cfg.trace_out.clone().map(FarmTracer::new),
            queue: JobQueue::new(cfg.queue_cap),
            seen: HashSet::new(),
            spool_file: HashMap::new(),
            workers: Vec::new(),
            retries: Vec::new(),
            tx,
            rx,
            report: DrainReport::default(),
            drain_started: None,
            disk_pressure: false,
            cfg,
        }
    }

    fn draining(&self) -> bool {
        self.drain_started.is_some()
    }

    /// The main loop: one round per poll, until drained or idle.
    fn supervise(&mut self) -> Result<(), ServeError> {
        loop {
            self.round += 1;
            self.fleet_health.tick(self.round);

            if !self.draining()
                && (signal::shutdown_requested() || job::drain_marker(&self.cfg.spool).exists())
            {
                self.drain_started = Some(Instant::now());
                // Stop admitting; preempt every in-flight session at its
                // next frame boundary. Queued specs stay on disk untouched.
                for w in &self.workers {
                    w.ctl.request_stop();
                }
            }

            // ENOSPC-aware degradation: below the low watermark, stop
            // admitting new work and shed cadence checkpoints; in-flight
            // jobs keep encoding (their final commit and preemption
            // checkpoints still run). Pressure clears itself when free space
            // recovers — queued specs wait in the spool, nothing is lost
            // either way.
            if self.cfg.disk_low_bytes > 0 {
                let spool = &self.cfg.spool;
                let free = backend_for(spool).free_space(spool).unwrap_or(u64::MAX);
                let pressured = free < self.cfg.disk_low_bytes;
                if pressured != self.disk_pressure {
                    self.disk_pressure = pressured;
                    let gauge = if pressured { 1.0 } else { 0.0 };
                    self.metrics.gauge(Metric::FarmDiskPressure, gauge);
                }
            }

            if !self.draining() && !self.disk_pressure {
                self.scan_spool()?;
                // Fill the in-flight credits: due retries first, then the
                // FIFO queue.
                let now = Instant::now();
                while self.workers.len() < self.cfg.max_inflight.max(1) {
                    let next = match self.retries.iter().position(|r| r.at <= now) {
                        Some(pos) => {
                            let r = self.retries.remove(pos);
                            Some((r.job, r.attempt))
                        }
                        None => self.queue.pop().map(|job| (job, 0)),
                    };
                    let Some((job, attempt)) = next else { break };
                    self.start(job, attempt);
                }
            }

            // Re-lease on every round: arrivals, completions and fleet
            // faults all change the fair share, and recomputation is cheap.
            let available = self.fleet_health.available();
            let leases = partition::fair_leases(&self.accel, &available, self.workers.len());
            for (w, lease) in self.workers.iter().zip(leases) {
                w.ctl.set_lease(Some(lease));
                w.ctl.set_ckpt_shed(self.disk_pressure);
            }
            self.metrics
                .gauge(Metric::FarmQueueDepth, self.queue.len() as f64);

            match self
                .rx
                .recv_timeout(Duration::from_millis(self.cfg.poll_ms.max(1)))
            {
                Ok(event) => self.reap(event)?,
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => unreachable!("farm holds a sender"),
            }

            if self.draining() && self.workers.is_empty() {
                // Jobs waiting on a retry timer hold a durable checkpoint and
                // their spool file: record them as checkpointed for the next
                // daemon.
                for r in std::mem::take(&mut self.retries) {
                    let frames_done = checkpointed_frames(&r.job);
                    let status = JobStatus::Checkpointed { frames_done };
                    self.settle(&r.job.id, status, r.attempt)?;
                }
                self.report.drained = true;
                return Ok(());
            }
            if self.cfg.exit_when_idle
                && !self.draining()
                // Never idle-exit under disk pressure: unscanned specs are
                // waiting in the spool for the pressure to clear.
                && !self.disk_pressure
                && self.workers.is_empty()
                && self.retries.is_empty()
                && self.queue.is_empty()
            {
                // One more scan so a submit racing the last completion wins.
                self.scan_spool()?;
                if self.queue.is_empty() {
                    return Ok(());
                }
            }
        }
    }

    /// The one place an attempt starts: book it as a retry when it is one,
    /// open its trace span, and spawn its worker thread.
    fn start(&mut self, job: JobSpec, attempt: u32) {
        if attempt > 0 {
            self.report.retried += 1;
            self.metrics.add(Metric::FarmRetries, 1);
        }
        let trace = self.tracer.as_mut().and_then(|t| t.spawned(&job, attempt));
        let ctl = Arc::new(SessionCtl::new());
        let scope = hub().session(&job.id);
        let (thread_job, thread_ctl, tx) = (job.clone(), ctl.clone(), self.tx.clone());
        let handle = std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(|| {
                run_session(&thread_job, &thread_ctl, scope, attempt, trace)
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
            // The supervisor owning the receiver may already be gone on a
            // hard teardown; a dead letter is fine then.
            let _ = tx.send(Event {
                id: thread_job.id,
                result,
                bad_job,
            });
        });
        self.workers.push(Worker {
            job,
            attempt,
            ctl,
            handle,
        });
    }

    /// An attempt ended: settle its job, or schedule the retry the policy
    /// allows.
    fn reap(&mut self, event: Event) -> Result<(), ServeError> {
        let Some(pos) = self.workers.iter().position(|w| w.job.id == event.id) else {
            return Ok(());
        };
        let Worker {
            job,
            attempt,
            handle,
            ..
        } = self.workers.remove(pos);
        let _ = handle.join();
        if let Some(t) = self.tracer.as_mut() {
            t.attempt_done(&job.id);
        }
        let attempts = attempt + 1;
        let failure = match event.result {
            Ok(rep) if rep.interrupted => {
                let frames_done = rep.frames_done;
                return self.settle(&job.id, JobStatus::Checkpointed { frames_done }, attempts);
            }
            // Verify-before-completed: a clean finish only counts once the
            // on-disk artifact re-reads byte-exact against the CRC streamed
            // on the write path. A mismatch (bit-rot, torn write) is demoted
            // to a session failure — the retry path re-encodes rather than
            // blessing a corrupt artifact.
            Ok(rep) => match verify_artifact(&job.output, rep.out_bytes, rep.artifact_crc) {
                Ok(()) => {
                    let status = JobStatus::Completed {
                        frames: rep.frames_done,
                        bytes: rep.out_bytes,
                        crc32: rep.artifact_crc,
                    };
                    return self.settle(&job.id, status, attempts);
                }
                Err(message) => {
                    self.metrics.add(Metric::IoCorruptRejected, 1);
                    SessionFailure {
                        message,
                        culprit: None,
                    }
                }
            },
            Err(failure) => failure,
        };
        if let Some(device) = failure.culprit.filter(|&d| d < self.accel.len()) {
            self.fleet_health.record_fault(device, self.round);
        }
        let policy = RetryPolicy::new(
            Duration::from_millis(self.cfg.retry_base_ms),
            self.cfg.retry_budget,
            job.seed(),
        );
        if policy.allows(attempt) && !self.draining() && !event.bad_job {
            self.retries.push(PendingRetry {
                job,
                attempt: attempts,
                at: Instant::now() + policy.delay(attempt),
            });
            return Ok(());
        }
        let status = JobStatus::Failed {
            error: failure.message,
            culprit: failure.culprit,
        };
        self.settle(&job.id, status, attempts)
    }

    /// The one terminal transition of a job: its durable done record first,
    /// then the report and `farm.*` counter its status books, the spool
    /// file (kept only by a checkpointed job, for the next daemon) and its
    /// trace.
    fn settle(&mut self, id: &str, status: JobStatus, attempts: u32) -> Result<(), ServeError> {
        job::write_done(&self.cfg.spool, id, &status, attempts, &*self.metrics)?;
        let r = &mut self.report;
        let (count, metric) = match status {
            JobStatus::Completed { .. } => (&mut r.completed, Some(Metric::FarmJobsCompleted)),
            JobStatus::Failed { .. } => (&mut r.failed, Some(Metric::FarmJobsFailed)),
            JobStatus::Rejected { .. } => (&mut r.rejected, Some(Metric::FarmAdmissionRejects)),
            JobStatus::Checkpointed { .. } => (&mut r.checkpointed, None),
        };
        *count += 1;
        if let Some(metric) = metric {
            self.metrics.add(metric, 1);
            if let Some(path) = self.spool_file.remove(id) {
                let _ = std::fs::remove_file(path);
            }
        }
        if let Some(t) = self.tracer.as_mut() {
            t.closed(id);
        }
        Ok(())
    }

    /// Pull new job specs out of the spool: admit, or reject with the typed
    /// queue-full error. Scanning is name-sorted so admission order (and the
    /// acceptance tests) are deterministic.
    fn scan_spool(&mut self) -> Result<(), ServeError> {
        let mut paths: Vec<PathBuf> = std::fs::read_dir(&self.cfg.spool)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
            .collect();
        paths.sort();
        for path in paths {
            let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
                continue;
            };
            let name = name.to_string();
            if self.seen.contains(&name) {
                continue;
            }
            let spec = match job::read_spec(&path) {
                // Vanished between listing and read, or a read the disk may
                // yet serve: the name stays unseen and the next scan looks
                // again — the spec is still queued, in the spool.
                Err(ServeError::Io(_)) => continue,
                other => other,
            };
            self.seen.insert(name.clone());
            let stem = name.trim_end_matches(".json");
            let refusal = spec.as_ref().ok().and_then(|spec| self.refusal(stem, spec));
            if let Some(refusal) = refusal {
                // Keyed by the file stem: the refused spec's records never
                // overwrite those of the job it collides with.
                self.spool_file.insert(stem.to_string(), path);
                let reason = refusal.to_string();
                self.settle(stem, JobStatus::Rejected { reason }, 0)?;
                continue;
            }
            match spec {
                Err(e) => {
                    // Reject, never crash: a corrupt spec (checksum
                    // mismatch) is quarantined for inspection; a merely
                    // invalid one is removed. Both get a typed `failed` done
                    // record.
                    let corrupt = matches!(e, ServeError::Corrupt(_));
                    if !corrupt {
                        self.spool_file.insert(stem.to_string(), path.clone());
                    }
                    let error = e.to_string();
                    let status = JobStatus::Failed {
                        error,
                        culprit: None,
                    };
                    self.settle(stem, status, 0)?;
                    if corrupt {
                        self.metrics.add(Metric::IoCorruptRejected, 1);
                        let _ = job::quarantine(&self.cfg.spool, &path);
                    }
                }
                Ok(spec) => {
                    let id = spec.id.clone();
                    self.spool_file.insert(id.clone(), path);
                    let admitted = spec.clone();
                    match self.queue.admit(spec) {
                        Ok(()) => {
                            if let Some(t) = self.tracer.as_mut() {
                                t.admitted(&admitted);
                            }
                        }
                        Err(e) => {
                            let reason = e.to_string();
                            self.settle(&id, JobStatus::Rejected { reason }, 0)?;
                        }
                    }
                }
            }
        }
        Ok(())
    }

    /// Why a well-formed spec may not be admitted from `<stem>.json`. The
    /// job's done record, spool entry and trace are keyed by its id, so a
    /// copy under another name would share them. Its output, and the
    /// `<output>.ckpt` directory named after it, have one owner: the job
    /// that holds them while it is queued, in flight or waiting to retry.
    fn refusal(&self, stem: &str, spec: &JobSpec) -> Option<ServeError> {
        if spec.id != stem {
            let (id, stem) = (spec.id.clone(), stem.to_string());
            return Some(ServeError::IdNotFileName { id, stem });
        }
        let mut live = (self.queue.iter())
            .chain(self.workers.iter().map(|w| &w.job))
            .chain(self.retries.iter().map(|r| &r.job));
        let holder = live.find(|job| job.output == spec.output)?;
        Some(ServeError::OutputHeld {
            output: spec.output.clone(),
            holder: holder.id.clone(),
        })
    }

    /// After the last round: the drain latency, the trace log, the final
    /// queue depth.
    fn finish(mut self) -> Result<DrainReport, ServeError> {
        if let Some(t0) = self.drain_started {
            self.metrics
                .observe(Metric::FarmDrainMs, t0.elapsed().as_secs_f64() * 1e3);
        }
        if let Some(t) = self.tracer.as_mut() {
            t.finish(self.metrics.as_ref())?;
        }
        self.metrics
            .gauge(Metric::FarmQueueDepth, self.queue.len() as f64);
        Ok(self.report)
    }
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
        let killed = feves_ft::ckpt::fnv1a64(b"killed");
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
