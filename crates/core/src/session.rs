//! The encode-session driver: the one implementation of Algorithm 1's
//! outer loop as a durable job.
//!
//! A [`ResumeContext`] is the job description (it is also what checkpoints
//! serialise). From it the driver resolves the platform and encoder
//! configuration, reads and fingerprints the input, validates a checkpoint
//! against the files on disk, opens (or truncates and re-opens) the output
//! behind a streaming CRC, runs the frame loop with durable checkpoint
//! commits, and fsyncs the finished artifact. `feves encode`, `feves
//! resume` and the farm worker (`feves_serve::session`) are shells over it:
//! they build the context, attach their telemetry to
//! [`Session::encoder_mut`], and supply what differs between them as
//! [`SessionHooks`] — the driver never branches on which shell is calling.

use crate::ckpt::{CheckpointManager, ResumeContext};
use crate::config::{BalancerKind, EncoderConfig, ExecutionMode};
use crate::framework::{FevesEncoder, FrameworkState};
use crate::report::FrameReport;
use feves_codec::kernels::{self, KernelKind};
use feves_codec::types::{EncodeParams, SearchArea};
use feves_ft::ckpt::{crc32_update, fnv1a64, CRC32_INIT};
use feves_ft::io::{backend_for, CrcFile};
use feves_ft::{FaultSchedule, FevesError};
use feves_hetsim::platform::Platform;
use feves_hetsim::profiles::{cpu_haswell, cpu_nehalem, gpu_fermi, gpu_kepler, scaled_for_kernels};
use feves_obs::{NoopRecorder, Recorder};
use feves_video::frame::Frame;
use feves_video::geometry::Resolution;
use feves_video::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
use std::fmt;
use std::io::{BufWriter, Seek, SeekFrom};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why a session could not start, continue or finish.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// The job description itself is unusable: unknown platform, balancer
    /// or kernel family, unparsable platform JSON or fault spec, an empty
    /// or unparsable input. Deterministic — running the job again cannot
    /// help.
    BadJob(String),
    /// Reading the input, or writing the output or a checkpoint, failed.
    /// The message already names the path. Possibly transient.
    Io(String),
    /// The encoder refused to start, a device fault escaped recovery, or a
    /// checkpoint no longer matches the files on disk
    /// ([`FevesError::CheckpointStale`] / [`FevesError::CheckpointCorrupt`]).
    Feves(FevesError),
    /// A stop was requested but the session has no checkpoint directory to
    /// commit its progress to.
    Interrupted,
}

impl fmt::Display for SessionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SessionError::BadJob(m) | SessionError::Io(m) => f.write_str(m),
            SessionError::Feves(e) => e.fmt(f),
            SessionError::Interrupted => {
                f.write_str("interrupted (no checkpointing armed; partial output left as-is)")
            }
        }
    }
}

impl std::error::Error for SessionError {}

impl From<FevesError> for SessionError {
    fn from(e: FevesError) -> Self {
        SessionError::Feves(e)
    }
}

fn io_at(path: &str, e: impl fmt::Display) -> SessionError {
    SessionError::Io(format!("{path}: {e}"))
}

/// One built-in platform: its `--platform` name, its constructor, and the
/// balancer `--balancer feves` means on it.
pub type NamedPlatform = (&'static str, fn() -> Platform, BalancerKind);

/// The built-in platforms of the paper's §IV.
pub const PLATFORMS: [NamedPlatform; 7] = [
    ("syshk", Platform::sys_hk, BalancerKind::Feves),
    ("sysnf", Platform::sys_nf, BalancerKind::Feves),
    ("sysnff", Platform::sys_nff, BalancerKind::Feves),
    (
        "cpu-n",
        || Platform::cpu_only(cpu_nehalem(), 4),
        BalancerKind::CpuOnly,
    ),
    (
        "cpu-h",
        || Platform::cpu_only(cpu_haswell(), 4),
        BalancerKind::CpuOnly,
    ),
    (
        "gpu-f",
        || Platform::gpu_only(gpu_fermi()),
        BalancerKind::SingleAccelerator(0),
    ),
    (
        "gpu-k",
        || Platform::gpu_only(gpu_kepler()),
        BalancerKind::SingleAccelerator(0),
    ),
];

/// Resolve a built-in platform by name.
pub fn platform_of(name: &str) -> Result<(Platform, BalancerKind), SessionError> {
    PLATFORMS
        .iter()
        .find(|(key, ..)| *key == name)
        .map(|(_, build, balancer)| (build(), *balancer))
        .ok_or_else(|| {
            SessionError::BadJob(format!("unknown platform '{name}' (see `feves platforms`)"))
        })
}

/// Build the platform and encoder configuration a job describes. Fresh
/// encodes, resumes and farm attempts all come through here, so a resumed
/// session replays exactly the configuration of the original one.
///
/// A `--kernels` choice in the context is forced onto the process-global
/// kernel dispatch; without one the family already active is used. Either
/// way the simulated CPU profiles are re-scaled to the family the host
/// actually runs. Every failure is a [`SessionError::BadJob`].
pub fn build_config(
    ctx: &ResumeContext,
    resolution: Resolution,
) -> Result<(Platform, EncoderConfig), SessionError> {
    let bad = |e: FevesError| SessionError::BadJob(e.to_string());
    let kernel_kind = match ctx.kernels.as_deref() {
        Some("scalar") => KernelKind::Scalar,
        Some("fast") => KernelKind::Fast,
        Some(other) => {
            return Err(SessionError::BadJob(format!(
                "--kernels: unknown value '{other}' (scalar|fast)"
            )))
        }
        None => kernels::active_kind(),
    };
    if ctx.kernels.is_some() {
        kernels::force_kind(kernel_kind);
    }
    let (mut platform, default_balancer) = match &ctx.platform_json {
        Some(json) => (Platform::from_json(json).map_err(bad)?, BalancerKind::Feves),
        None => platform_of(&ctx.platform)?,
    };
    platform.devices = platform
        .devices
        .drain(..)
        .map(|d| scaled_for_kernels(d, kernel_kind))
        .collect();
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(ctx.sa),
        n_ref: ctx.refs,
        qp: ctx.qp,
        qp_intra: ctx.qp.saturating_sub(1),
    });
    cfg.resolution = resolution;
    cfg.balancer = match ctx.balancer.as_str() {
        "feves" => default_balancer,
        "proportional" => BalancerKind::Proportional,
        "equidistant" => BalancerKind::Equidistant,
        other => return Err(SessionError::BadJob(format!("unknown balancer '{other}'"))),
    };
    cfg.faults = FaultSchedule::parse(&ctx.faults).map_err(bad)?.specs;
    if let Some(f) = ctx.deadline_factor {
        cfg.deadline_factor = f;
    }
    cfg.pipeline = ctx.pipeline;
    Ok((platform, cfg))
}

/// A whole input sequence, read and fingerprinted.
pub struct Input {
    /// FNV-1a 64 of the file's bytes — what checkpoints pin the input to.
    pub fingerprint: u64,
    /// The stream header (resolution, frame rate).
    pub header: Y4mHeader,
    /// Every frame, in display order. Never empty.
    pub frames: Vec<Frame>,
}

/// Read a Y4M file entirely. A file that cannot be read is
/// [`SessionError::Io`]; one that does not parse, or holds no frames, is
/// [`SessionError::BadJob`].
pub fn read_input(path: &str) -> Result<Input, SessionError> {
    let raw = std::fs::read(path).map_err(|e| io_at(path, e))?;
    let bad = |e: &dyn fmt::Display| SessionError::BadJob(format!("{path}: {e}"));
    let fingerprint = fnv1a64(&raw);
    let mut reader = Y4mReader::new(std::io::Cursor::new(raw)).map_err(|e| bad(&e))?;
    let header = reader.header();
    let frames = reader.read_all().map_err(|e| bad(&e))?;
    if frames.is_empty() {
        return Err(bad(&"empty input"));
    }
    Ok(Input {
        fingerprint,
        header,
        frames,
    })
}

/// Check that the checkpoint described by `ctx` still matches the input and
/// the output on disk.
///
/// `Ok(Some(state))` means continue at `ctx.frames_done`: the output's
/// first `ctx.out_bytes` are intact and `state` is their running CRC-32
/// state. `Ok(None)` is a checkpoint taken before any frame was written,
/// which committed no output (not even the Y4M header) — starting fresh is
/// the same thing. A changed input or a short output is
/// [`FevesError::CheckpointStale`]; a committed prefix that no longer
/// hashes to `ctx.out_crc` is [`FevesError::CheckpointCorrupt`], because
/// continuing atop rotted bytes would launder them into a "complete"
/// artifact.
pub fn validate_checkpoint(
    ctx: &ResumeContext,
    input: &Input,
) -> Result<Option<u32>, SessionError> {
    if input.fingerprint != ctx.input_fingerprint {
        return Err(FevesError::CheckpointStale(format!(
            "input {} changed since the checkpoint was taken",
            ctx.input
        ))
        .into());
    }
    if input.frames.len() != ctx.n_frames {
        return Err(FevesError::CheckpointStale(format!(
            "input {} has {} frames, checkpoint expects {}",
            ctx.input,
            input.frames.len(),
            ctx.n_frames
        ))
        .into());
    }
    if ctx.frames_done == 0 {
        return Ok(None);
    }
    let out = Path::new(&ctx.output);
    let raw = backend_for(out)
        .read(out)
        .map_err(|e| io_at(&ctx.output, e))?;
    let len = raw.len() as u64;
    if len < ctx.out_bytes {
        return Err(FevesError::CheckpointStale(format!(
            "output {} is {len} bytes, shorter than the {} committed by the checkpoint",
            ctx.output, ctx.out_bytes
        ))
        .into());
    }
    let state = crc32_update(CRC32_INIT, &raw[..ctx.out_bytes as usize]);
    if !state != ctx.out_crc {
        return Err(FevesError::CheckpointCorrupt(format!(
            "output {}: committed prefix hashes to {:08x}, checkpoint recorded {:08x} \
             — the artifact rotted on disk; re-encode instead of resuming",
            ctx.output, !state, ctx.out_crc
        ))
        .into());
    }
    Ok(Some(state))
}

/// One durable checkpoint commit, as reported to [`SessionHooks::on_commit`].
pub struct Commit<'a> {
    /// The generation file just committed.
    pub path: &'a Path,
    /// The frame boundary it claims.
    pub frames_done: usize,
    /// Wall time of the whole commit (output fsync + checkpoint write).
    pub took: Duration,
    /// True for the off-cadence commit a stop request forces.
    pub stopping: bool,
}

/// What differs between the callers of [`Session::run`].
pub trait SessionHooks {
    /// Polled at every frame boundary; `true` makes the session commit a
    /// checkpoint there and return early.
    fn stop_requested(&self) -> bool;
    /// Runs right before frame `index` is encoded (crash/chaos injection).
    fn before_frame(&mut self, _index: usize) {}
    /// A frame was encoded and its reconstruction written.
    fn on_frame(&mut self, _report: FrameReport) {}
    /// `true` skips a cadence commit (never a stop commit): progress
    /// durability is traded away, bit-exactness is not.
    fn shed_cadence_commit(&self) -> bool {
        false
    }
    /// A checkpoint was durably committed.
    fn on_commit(&mut self, _commit: &Commit) {}
    /// Where the checkpoint writer's own metrics go.
    fn recorder(&self) -> &dyn Recorder {
        &NoopRecorder
    }
}

/// How a session ended.
pub struct Finished {
    /// The encoder, for reading final statistics and flight records.
    pub encoder: FevesEncoder,
    /// The job description. Its progress fields (`frames_done`,
    /// `out_bytes`, `out_crc`) describe what is durably on disk: the whole
    /// artifact, or the stop checkpoint's prefix when `interrupted`.
    pub context: ResumeContext,
    /// True when a stop request ended the session at a checkpoint.
    pub interrupted: bool,
}

/// An open encode session: encoder, output and checkpoint state, positioned
/// at the first frame still to encode.
pub struct Session {
    enc: FevesEncoder,
    writer: Y4mWriter<BufWriter<CrcFile>>,
    ctx: ResumeContext,
    mgr: Option<CheckpointManager>,
    frames: Vec<Frame>,
}

impl Session {
    /// Open a session for the job `ctx` describes over `input`.
    ///
    /// With `resume` — a checkpoint's encoder state plus the prefix CRC
    /// state [`validate_checkpoint`] returned — the output is truncated to
    /// `ctx.out_bytes` (anything past it is a torn frame from the previous
    /// attempt) and encoding continues at `ctx.frames_done`. Without, the
    /// output is created and the context's progress fields are reset.
    /// `ckpt_dir` arms checkpointing into that directory. `extras` may
    /// adjust the configuration [`build_config`] produced before the
    /// encoder is built from it.
    pub fn open(
        mut ctx: ResumeContext,
        input: Input,
        resume: Option<(FrameworkState, u32)>,
        ckpt_dir: Option<PathBuf>,
        extras: impl FnOnce(&mut EncoderConfig),
    ) -> Result<Session, SessionError> {
        let (platform, mut cfg) = build_config(&ctx, input.header.resolution)?;
        extras(&mut cfg);
        cfg.mode = ExecutionMode::Functional;
        let out_path = ctx.output.clone();
        let (enc, writer) = match resume {
            Some((state, prefix_crc_state)) => {
                let enc = FevesEncoder::restore(platform, cfg, state)?;
                let reopen = || -> std::io::Result<std::fs::File> {
                    let mut file = std::fs::OpenOptions::new()
                        .read(true)
                        .write(true)
                        .open(&out_path)?;
                    file.set_len(ctx.out_bytes)?;
                    file.seek(SeekFrom::End(0))?;
                    Ok(file)
                };
                let file = reopen().map_err(|e| io_at(&out_path, e))?;
                // Seeding the CRC with the verified prefix makes the final
                // artifact checksum cover the whole file, every attempt.
                let file = CrcFile::resume(file, prefix_crc_state, ctx.out_bytes);
                (enc, Y4mWriter::resume(BufWriter::new(file), input.header))
            }
            None => {
                let enc = FevesEncoder::new(platform, cfg)?;
                let file =
                    CrcFile::create(Path::new(&out_path)).map_err(|e| io_at(&out_path, e))?;
                ctx.n_frames = input.frames.len();
                ctx.input_fingerprint = input.fingerprint;
                (ctx.frames_done, ctx.out_bytes, ctx.out_crc) = (0, 0, 0);
                (enc, Y4mWriter::new(BufWriter::new(file), input.header))
            }
        };
        let mgr = ckpt_dir.map(|dir| CheckpointManager::new(dir, ctx.keep));
        Ok(Session {
            enc,
            writer,
            ctx,
            mgr,
            frames: input.frames,
        })
    }

    /// The session's encoder, for attaching telemetry before [`Self::run`].
    pub fn encoder_mut(&mut self) -> &mut FevesEncoder {
        &mut self.enc
    }

    /// Make the frame boundary `done` durable: flush and fsync the output,
    /// then commit a checkpoint claiming exactly those bytes and their CRC.
    /// Cadence commits are only requested when armed, so being asked with
    /// no checkpoint directory means a stop request that cannot be kept.
    fn commit(
        &mut self,
        done: usize,
        stopping: bool,
        hooks: &mut dyn SessionHooks,
    ) -> Result<(), SessionError> {
        let Some(mgr) = &self.mgr else {
            return Err(SessionError::Interrupted);
        };
        let started = Instant::now();
        self.writer
            .flush()
            .map_err(|e| io_at(&self.ctx.output, e))?;
        let file = self.writer.get_ref().get_ref();
        file.sync().map_err(|e| io_at(&self.ctx.output, e))?;
        self.ctx.frames_done = done;
        self.ctx.out_bytes = file.bytes();
        self.ctx.out_crc = file.crc();
        // Checkpoints commit only at quiesced frame boundaries: drain any
        // in-flight pipeline generation before snapshotting.
        self.enc.quiesce_pipeline();
        let state = self.enc.snapshot();
        let path = mgr
            .write(&self.ctx, &state, hooks.recorder())
            .map_err(|e| SessionError::Io(format!("checkpoint {}: {e}", mgr.dir().display())))?;
        hooks.on_commit(&Commit {
            path: &path,
            frames_done: done,
            took: started.elapsed(),
            stopping,
        });
        Ok(())
    }

    /// Encode every remaining frame, streaming reconstructions to the
    /// output and committing a checkpoint every `ctx.every` frames (when
    /// armed), then flush, fsync and close the output — a session only
    /// reports completion once its artifact is durable.
    ///
    /// A stop request is honoured at the next frame boundary with an
    /// off-cadence commit, so stopping loses no encoded frame; without a
    /// checkpoint directory it is [`SessionError::Interrupted`].
    pub fn run(mut self, hooks: &mut dyn SessionHooks) -> Result<Finished, SessionError> {
        let frames = std::mem::take(&mut self.frames);
        for (i, f) in frames.iter().enumerate().skip(self.ctx.frames_done) {
            if hooks.stop_requested() {
                self.commit(i, true, hooks)?;
                return Ok(Finished {
                    encoder: self.enc,
                    context: self.ctx,
                    interrupted: true,
                });
            }
            hooks.before_frame(i);
            let report = self.enc.encode_frame(f);
            let (y, u, v) = self
                .enc
                .last_reconstruction_yuv()
                .expect("a functional-mode encode leaves a reconstruction");
            let mut rf = f.clone();
            rf.y_mut().copy_from(y);
            rf.u_mut().copy_from(u);
            rf.v_mut().copy_from(v);
            self.writer
                .write_frame(&rf)
                .map_err(|e| io_at(&self.ctx.output, e))?;
            hooks.on_frame(report);
            let done = i + 1;
            if self.mgr.is_some()
                && self.ctx.every > 0
                && done.is_multiple_of(self.ctx.every)
                && done < frames.len()
                && !hooks.shed_cadence_commit()
            {
                self.commit(done, false, hooks)?;
            }
        }
        let out_path = &self.ctx.output;
        let file = self
            .writer
            .finish()
            .map_err(|e| io_at(out_path, e))?
            .into_inner()
            .map_err(|e| io_at(out_path, e))?;
        file.sync().map_err(|e| io_at(out_path, e))?;
        self.ctx.frames_done = frames.len();
        self.ctx.out_bytes = file.bytes();
        self.ctx.out_crc = file.crc();
        Ok(Finished {
            encoder: self.enc,
            context: self.ctx,
            interrupted: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_ft::ckpt::crc32;

    fn context(dir: &Path, frames_done: usize, committed: &[u8]) -> ResumeContext {
        ResumeContext {
            input: "in.y4m".into(),
            output: dir.join("out.y4m").to_string_lossy().into_owned(),
            platform: "syshk".into(),
            platform_json: None,
            sa: 16,
            refs: 1,
            qp: 28,
            balancer: "feves".into(),
            kernels: None,
            faults: Vec::new(),
            deadline_factor: None,
            flight_out: None,
            metrics_out: None,
            every: 2,
            keep: 2,
            frames_done,
            n_frames: 3,
            out_bytes: committed.len() as u64,
            input_fingerprint: 0xF00D,
            pipeline: false,
            out_crc: crc32(committed),
        }
    }

    fn input(fingerprint: u64, n_frames: usize) -> Input {
        Input {
            fingerprint,
            header: Y4mHeader {
                resolution: Resolution::QCIF,
                fps: (25, 1),
            },
            frames: vec![Frame::new(Resolution::QCIF).unwrap(); n_frames],
        }
    }

    #[test]
    fn checkpoint_validation_names_each_reason() {
        let dir = std::env::temp_dir().join(format!("feves-validate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let committed = b"YUV4MPEG2 header and two committed frames";
        let on_disk = |bytes: &[u8]| std::fs::write(dir.join("out.y4m"), bytes).unwrap();
        let ctx = context(&dir, 2, committed);

        // Intact prefix (a torn tail past it is fine): continue, and the
        // returned state is the prefix's running CRC.
        on_disk(&[&committed[..], b"torn tail"].concat());
        let state = validate_checkpoint(&ctx, &input(0xF00D, 3)).unwrap();
        assert_eq!(state, Some(!crc32(committed)));

        let stale = |r: Result<Option<u32>, SessionError>, needle: &str| match r {
            Err(SessionError::Feves(FevesError::CheckpointStale(m))) => {
                assert!(m.contains(needle), "{m}")
            }
            other => panic!("expected CheckpointStale({needle}), got {other:?}"),
        };
        stale(
            validate_checkpoint(&ctx, &input(0xBEEF, 3)),
            "changed since the checkpoint was taken",
        );
        stale(
            validate_checkpoint(&ctx, &input(0xF00D, 4)),
            "has 4 frames, checkpoint expects 3",
        );
        on_disk(&committed[..10]);
        stale(
            validate_checkpoint(&ctx, &input(0xF00D, 3)),
            "is 10 bytes, shorter than the 41 committed",
        );

        let mut rotted = committed.to_vec();
        rotted[7] ^= 0x01;
        on_disk(&rotted);
        match validate_checkpoint(&ctx, &input(0xF00D, 3)) {
            Err(SessionError::Feves(FevesError::CheckpointCorrupt(m))) => {
                assert!(m.contains("committed prefix hashes to"), "{m}")
            }
            other => panic!("expected CheckpointCorrupt, got {other:?}"),
        }

        // A frame-0 checkpoint committed no output: fresh start, and the
        // output file is not even consulted.
        std::fs::remove_file(dir.join("out.y4m")).unwrap();
        let at_zero = context(&dir, 0, b"");
        assert_eq!(
            validate_checkpoint(&at_zero, &input(0xF00D, 3)).unwrap(),
            None
        );
        // …but the input checks still apply to it.
        stale(
            validate_checkpoint(&at_zero, &input(0xBEEF, 3)),
            "changed since",
        );
        // An unreadable output is an I/O error, not a verdict on the
        // checkpoint.
        assert!(matches!(
            validate_checkpoint(&ctx, &input(0xF00D, 3)),
            Err(SessionError::Io(_))
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn job_description_errors_are_bad_jobs() {
        let dir = std::env::temp_dir();
        let ok = context(&dir, 0, b"");
        assert!(build_config(&ok, Resolution::QCIF).is_ok());
        for (edit, needle) in [
            (
                (|c| c.platform = "sysxx".into()) as fn(&mut ResumeContext),
                "unknown platform 'sysxx'",
            ),
            (|c| c.balancer = "bogus".into(), "unknown balancer 'bogus'"),
            (
                |c| c.kernels = Some("simd".into()),
                "--kernels: unknown value",
            ),
            (|c| c.faults = vec!["nope".into()], "nope"),
            (|c| c.platform_json = Some("{".into()), "parse error"),
        ] {
            let mut ctx = ok.clone();
            edit(&mut ctx);
            match build_config(&ctx, Resolution::QCIF) {
                Err(SessionError::BadJob(m)) => assert!(m.contains(needle), "{m}"),
                other => panic!("expected BadJob({needle}), got {:?}", other.map(|_| ())),
            }
        }
        for (name, ..) in PLATFORMS {
            assert!(platform_of(name).is_ok(), "{name}");
        }
    }

    #[test]
    fn unreadable_input_is_io_but_unparsable_or_empty_is_a_bad_job() {
        let dir = std::env::temp_dir().join(format!("feves-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        assert!(matches!(
            read_input(&path("missing.y4m")),
            Err(SessionError::Io(_))
        ));
        std::fs::write(path("garbage.y4m"), b"not a y4m stream\n").unwrap();
        assert!(matches!(
            read_input(&path("garbage.y4m")),
            Err(SessionError::BadJob(_))
        ));
        std::fs::write(
            path("empty.y4m"),
            b"YUV4MPEG2 W176 H144 F25:1 Ip A1:1 C420jpeg\n",
        )
        .unwrap();
        match read_input(&path("empty.y4m")) {
            Err(SessionError::BadJob(m)) => assert!(m.ends_with("empty.y4m: empty input"), "{m}"),
            other => panic!("expected BadJob, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
