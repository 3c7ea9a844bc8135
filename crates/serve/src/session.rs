//! One supervised encode session: the farm worker's shell over
//! [`feves_core::session`], the driver `feves encode` and `feves resume`
//! also run on.
//!
//! Bit-exactness is the contract: a job run under the farm produces output
//! byte-identical to the same job run as a single `feves encode`, because
//! both are the same driver fed the same [`ResumeContext`]. What this shell
//! adds is only what a supervised session needs — a
//! [`feves_core::SessionCtl`] so the supervisor can preempt it at frame
//! boundaries, lease devices and shed cadence checkpoints under disk
//! pressure; the chaos-kill hook; wall-clock checkpoint spans for the
//! causal trace; health-backoff jitter seeded from the job id (scheduling
//! timing only, never functional bytes) — and one policy: a checkpoint the
//! driver rejects is not an error here, the attempt starts over from
//! frame 0, which is always bit-safe.

use crate::job::JobSpec;
use crate::ServeError;
use feves_core::session::{self, Commit, Session, SessionError, SessionHooks};
use feves_core::{load_latest, ResumeContext, SessionCtl};
use feves_ft::io::crc_of_prefix;
use feves_ft::FevesError;
use feves_hetsim::platform::Platform;
use feves_obs::{SessionScope, TraceSink};
use std::path::Path;
use std::sync::Arc;

/// Checkpoint cadence for jobs that did not choose one: frequent enough
/// that preemption and retry lose little work on short farm jobs.
const DEFAULT_CHECKPOINT_EVERY: usize = 4;

/// What a session that ran to a clean stop reports back.
#[derive(Clone, Debug, PartialEq)]
pub struct SessionReport {
    /// Frames durably on disk (all of them unless interrupted).
    pub frames_done: usize,
    /// Total frames in the input.
    pub n_frames: usize,
    /// Committed output bytes.
    pub out_bytes: u64,
    /// CRC-32 of the output, streamed on the write path — what the bytes
    /// *should* be, independent of what the disk later returns. Zero when
    /// interrupted (the checkpoint carries the prefix CRC instead).
    pub artifact_crc: u32,
    /// True when the supervisor's stop request ended the session early —
    /// a durable checkpoint was committed first.
    pub interrupted: bool,
}

/// Check a completed artifact against its streamed size + CRC by
/// re-reading it from disk. This is the farm's verify-before-`completed`
/// gate: bit-rot between fsync and report, or a torn write the session
/// missed, surfaces here as a typed message instead of a corrupt
/// "completed" artifact.
pub fn verify_artifact(path: &str, bytes: u64, crc: u32) -> Result<(), String> {
    let (len, state) =
        crc_of_prefix(Path::new(path), u64::MAX).map_err(|e| format!("{path}: {e}"))?;
    if len != bytes {
        return Err(format!(
            "{path}: artifact is {len} bytes, session wrote {bytes}"
        ));
    }
    let got = !state;
    if got != crc {
        return Err(format!(
            "{path}: artifact checksum {got:08x} != streamed {crc:08x} (corrupt artifact)"
        ));
    }
    Ok(())
}

/// A session that died: the message plus the attributed device, when the
/// fault had one, so the supervisor can blacklist it fleet-wide.
#[derive(Clone, Debug)]
pub struct SessionFailure {
    /// Human-readable cause.
    pub message: String,
    /// Platform device index to blame, if attribution was possible.
    pub culprit: Option<usize>,
}

impl From<SessionError> for SessionFailure {
    fn from(e: SessionError) -> Self {
        SessionFailure {
            message: e.to_string(),
            culprit: match e {
                SessionError::Feves(FevesError::Fault(f)) => Some(f.device),
                _ => None,
            },
        }
    }
}

/// The fleet platform the partitioner and fleet health machine size against.
pub fn fleet_platform(name: &str) -> Result<Platform, ServeError> {
    session::platform_of(name)
        .map(|(p, _)| p)
        .map_err(|e| ServeError::BadJob(e.to_string()))
}

/// The job as the driver's job description. A farm job has no per-job
/// kernel choice, platform file, deadline factor or telemetry exports;
/// the driver fills in the input identity and progress fields.
fn job_context(job: &JobSpec, every: usize) -> ResumeContext {
    ResumeContext {
        input: job.input.clone(),
        output: job.output.clone(),
        platform: job.platform.clone(),
        platform_json: None,
        sa: job.sa,
        refs: job.refs,
        qp: job.qp,
        balancer: job.balancer.clone(),
        kernels: None,
        faults: job.faults.clone(),
        deadline_factor: None,
        flight_out: None,
        metrics_out: None,
        every,
        keep: 2,
        frames_done: 0,
        n_frames: 0,
        out_bytes: 0,
        input_fingerprint: 0,
        pipeline: job.pipeline,
        out_crc: 0,
    }
}

/// The supervised side of the driver's frame loop.
struct FarmHooks<'a> {
    job: &'a JobSpec,
    ctl: &'a SessionCtl,
    attempt: u32,
    trace: Option<&'a TraceSink>,
}

impl SessionHooks for FarmHooks<'_> {
    fn stop_requested(&self) -> bool {
        self.ctl.stop_requested()
    }

    fn before_frame(&mut self, i: usize) {
        if self.attempt == 0 && self.job.chaos_kill_at == Some(i) {
            panic!(
                "chaos: injected session kill before frame {i} of job '{}'",
                self.job.id
            );
        }
    }

    fn shed_cadence_commit(&self) -> bool {
        self.ctl.ckpt_shed()
    }

    /// One wall-clock checkpoint span under the attempt, named by the frame
    /// boundary it committed — the anchor a retry's resume edge points at.
    fn on_commit(&mut self, commit: &Commit) {
        if let Some(t) = self.trace {
            let took_us = commit.took.as_secs_f64() * 1e6;
            t.record(
                &format!("ckpt{}", commit.frames_done),
                "checkpoint",
                t.now_us() - took_us,
                took_us,
            );
        }
    }
}

/// Run one job to completion, a preemption checkpoint, or failure.
///
/// `attempt` is 0 on first dispatch and counts up across supervisor
/// retries; the [`JobSpec::chaos_kill_at`] hook only fires on attempt 0,
/// so a retried job proves the checkpointed-recovery path. The typed
/// [`SessionError`] tells a bad job description (never retried) from a
/// fault (retried); [`SessionFailure::from`] renders it.
pub fn run_session(
    job: &JobSpec,
    ctl: &Arc<SessionCtl>,
    scope: SessionScope,
    attempt: u32,
    trace: Option<TraceSink>,
) -> Result<SessionReport, SessionError> {
    let every = if job.checkpoint_every > 0 {
        job.checkpoint_every
    } else {
        DEFAULT_CHECKPOINT_EVERY
    };
    // Continue from the newest checkpoint generation that loads and still
    // matches the input and output on disk; otherwise start fresh. The job
    // spec, not the checkpoint, owns cadence and scheduling mode: resuming
    // lockstep work pipelined (or vice versa) is bit-safe.
    let latest = load_latest(&job.ckpt_dir()).ok();
    let at = latest.as_ref().map_or(0, |(_, ctx, ..)| ctx.frames_done);
    let input = session::open_input(&job.input, at)?;
    let (ctx, resume) = latest
        .and_then(|(_path, mut ctx, state, _warnings)| {
            let prefix_crc_state = session::validate_checkpoint(&ctx, &input).ok()??;
            ctx.every = every;
            ctx.pipeline = job.pipeline;
            Some((ctx, Some((state, prefix_crc_state))))
        })
        .unwrap_or_else(|| (job_context(job, every), None));
    let mut session = Session::open(ctx, input, resume, Some(job.ckpt_dir()), |cfg| {
        // Decorrelate concurrent sessions' re-admission probes of a shared
        // recovered device. Timing only — functional bytes are unaffected.
        cfg.health_jitter = Some(job.seed());
    })?;
    let enc = session.encoder_mut();
    enc.set_scope(scope);
    enc.set_ctl(ctl.clone());
    if let Some(sink) = &trace {
        // Frame/phase/kernel spans parent under the farm's attempt span.
        enc.set_trace(sink.clone());
    }
    let done = session.run(&mut FarmHooks {
        job,
        ctl,
        attempt,
        trace: trace.as_ref(),
    })?;
    Ok(SessionReport {
        frames_done: done.context.frames_done,
        n_frames: done.context.n_frames,
        out_bytes: done.context.out_bytes,
        artifact_crc: if done.interrupted {
            0
        } else {
            done.context.out_crc
        },
        interrupted: done.interrupted,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_obs::hub;
    use feves_video::geometry::Resolution;
    use feves_video::synth::{SynthConfig, SynthSequence};
    use feves_video::y4m::{Y4mHeader, Y4mWriter};
    use std::path::PathBuf;

    fn scratch(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("feves-serve-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_input(path: &Path, n_frames: usize) {
        let mut seq = SynthSequence::new(SynthConfig {
            resolution: Resolution::QCIF,
            seed: 7,
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

    fn job(dir: &Path, id: &str) -> JobSpec {
        JobSpec {
            id: id.into(),
            input: dir.join("in.y4m").to_string_lossy().into_owned(),
            output: dir.join(format!("{id}.y4m")).to_string_lossy().into_owned(),
            sa: 16,
            refs: 2,
            checkpoint_every: 2,
            ..JobSpec::default()
        }
    }

    #[test]
    fn completes_and_is_deterministic() {
        let dir = scratch("session-det");
        write_input(&dir.join("in.y4m"), 6);
        let ctl = Arc::new(SessionCtl::new());
        let a = run_session(&job(&dir, "a"), &ctl, hub().session("a"), 0, None).unwrap();
        assert_eq!((a.frames_done, a.interrupted), (6, false));
        let b = run_session(&job(&dir, "b"), &ctl, hub().session("b"), 0, None).unwrap();
        let bytes_a = std::fs::read(job(&dir, "a").output).unwrap();
        let bytes_b = std::fs::read(job(&dir, "b").output).unwrap();
        assert_eq!(a.out_bytes, b.out_bytes);
        assert_eq!(
            bytes_a, bytes_b,
            "two runs of one job must be bit-identical"
        );
    }

    #[test]
    fn stop_request_checkpoints_and_resume_is_bit_exact() {
        let dir = scratch("session-stop");
        write_input(&dir.join("in.y4m"), 6);
        let baseline = job(&dir, "base");
        let ctl = Arc::new(SessionCtl::new());
        run_session(&baseline, &ctl, hub().session("base"), 0, None).unwrap();

        // Stop before the session starts: it must checkpoint frame 0 work
        // (none) durably and report interrupted.
        let j = job(&dir, "stopped");
        let ctl = Arc::new(SessionCtl::new());
        ctl.request_stop();
        let rep = run_session(&j, &ctl, hub().session("stopped"), 0, None).unwrap();
        assert!(rep.interrupted);
        assert!(rep.frames_done < rep.n_frames);
        assert!(j.ckpt_dir().is_dir(), "preemption must leave a checkpoint");

        // A later attempt resumes from it and finishes byte-identical.
        let ctl = Arc::new(SessionCtl::new());
        let rep = run_session(&j, &ctl, hub().session("stopped-2"), 1, None).unwrap();
        assert_eq!((rep.frames_done, rep.interrupted), (6, false));
        assert_eq!(
            std::fs::read(&j.output).unwrap(),
            std::fs::read(&baseline.output).unwrap(),
            "resumed session must be bit-identical to an uninterrupted one"
        );
    }

    #[test]
    fn chaos_kill_fires_only_on_attempt_zero() {
        let dir = scratch("session-chaos");
        write_input(&dir.join("in.y4m"), 6);
        let mut j = job(&dir, "chaos");
        j.chaos_kill_at = Some(3);
        let ctl = Arc::new(SessionCtl::new());
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_session(&j, &ctl, hub().session("chaos"), 0, None)
        }));
        assert!(panicked.is_err(), "attempt 0 must hit the chaos kill");
        // Attempt 1 resumes from the frame-2 checkpoint and completes.
        let rep = run_session(&j, &ctl, hub().session("chaos-2"), 1, None).unwrap();
        assert_eq!((rep.frames_done, rep.interrupted), (6, false));
        let baseline = job(&dir, "cbase");
        run_session(&baseline, &ctl, hub().session("cbase"), 0, None).unwrap();
        assert_eq!(
            std::fs::read(&j.output).unwrap(),
            std::fs::read(&baseline.output).unwrap(),
            "chaos-killed + retried output must match the clean run"
        );
    }

    #[test]
    fn missing_input_fails_without_culprit() {
        let dir = scratch("session-missing");
        let j = job(&dir, "missing");
        let ctl = Arc::new(SessionCtl::new());
        let err = run_session(&j, &ctl, hub().session("missing"), 0, None).unwrap_err();
        let err = SessionFailure::from(err);
        assert!(err.culprit.is_none());
        assert!(err.message.contains("in.y4m"));
    }
}
