//! The encode-session driver: the one implementation of Algorithm 1's
//! outer loop as a durable job.
//!
//! A [`ResumeContext`] is the job description (it is also what checkpoints
//! serialise). From it the driver resolves the platform and encoder
//! configuration, scans and fingerprints the input, validates a checkpoint
//! against the files on disk, opens (or truncates and re-opens) the output
//! behind a streaming CRC, runs the frame loop — one input frame in memory
//! at a time — with durable checkpoint commits, and fsyncs the finished
//! artifact. `feves encode`, `feves
//! resume` and the farm worker (`feves_serve::session`) are shells over it:
//! they build the context, attach their telemetry to
//! [`Session::encoder_mut`], and supply what differs between them as
//! [`SessionHooks`] — the driver never branches on which shell is calling.

use crate::ckpt::{CheckpointManager, ResumeContext};
use crate::config::{BalancerKind, EncoderConfig, ExecutionMode};
use crate::framework::{FevesEncoder, FrameworkState};
use crate::report::FrameReport;
use feves_codec::types::{EncodeParams, SearchArea};
use feves_ft::ckpt::{fnv1a64_update, FNV1A64_INIT};
use feves_ft::io::{crc_of_prefix, CrcFile};
use feves_ft::{FaultSchedule, FevesError};
use feves_hetsim::platform::Platform;
use feves_hetsim::profiles::{cpu_haswell, cpu_nehalem, gpu_fermi, gpu_kepler};
use feves_obs::{NoopRecorder, Recorder};
use feves_video::error::VideoError;
use feves_video::frame::Frame;
use feves_video::geometry::Resolution;
use feves_video::y4m::{Y4mFile, Y4mWriter};
use std::fmt;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Why a session could not start, continue or finish.
#[derive(Clone, Debug, PartialEq)]
pub enum SessionError {
    /// The job description itself is unusable: unknown platform or
    /// balancer, unparsable platform JSON or fault spec, an empty
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
/// The context's `kernels` field is not read: a checkpoint still carries
/// it, but the host runs one kernel family and the modelled platform does
/// not depend on it. Every failure is a [`SessionError::BadJob`].
pub fn build_config(
    ctx: &ResumeContext,
    resolution: Resolution,
) -> Result<(Platform, EncoderConfig), SessionError> {
    let bad = |e: FevesError| SessionError::BadJob(e.to_string());
    let (platform, default_balancer) = match &ctx.platform_json {
        Some(json) => (Platform::from_json(json).map_err(bad)?, BalancerKind::Feves),
        None => platform_of(&ctx.platform)?,
    };
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

/// Buffer in front of the artifact: a few hundred KiB keeps a 720p frame to
/// a handful of `write(2)` calls and CRC folds where the 8 KiB default makes
/// ~170 of each.
const OUT_BUF: usize = 256 * 1024;

const INPUT_CHANGED: &str = "input changed during the encode";

/// An input sequence: scanned and fingerprinted once, none of it held.
pub struct Input {
    /// FNV-1a 64 of the file's bytes — what checkpoints pin the input to.
    pub fingerprint: u64,
    /// The open file; its scan has the header and the frame count (never 0).
    pub file: Y4mFile,
}

/// Open a Y4M file: one pass over it in a bounded buffer checks every frame
/// of it, fingerprints it, and finds where frame `at` (a checkpoint's
/// `frames_done`; 0 for a new job) starts. A file that cannot be read is
/// [`SessionError::Io`]; one that does not parse, or holds no frames, is
/// [`SessionError::BadJob`].
pub fn open_input(path: &str, at: usize) -> Result<Input, SessionError> {
    let bad = |e: &dyn fmt::Display| SessionError::BadJob(format!("{path}: {e}"));
    let mut fingerprint = FNV1A64_INIT;
    let fold = |bytes: &[u8]| fingerprint = fnv1a64_update(fingerprint, bytes);
    let file = Y4mFile::open(Path::new(path), at, fold).map_err(|e| match e {
        VideoError::Io(e) => io_at(path, e),
        e => bad(&e),
    })?;
    if file.scan().n_frames == 0 {
        return Err(bad(&"empty input"));
    }
    Ok(Input { fingerprint, file })
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
    let n_frames = input.file.scan().n_frames;
    if n_frames != ctx.n_frames {
        return Err(FevesError::CheckpointStale(format!(
            "input {} has {n_frames} frames, checkpoint expects {}",
            ctx.input, ctx.n_frames
        ))
        .into());
    }
    if ctx.frames_done == 0 {
        return Ok(None);
    }
    let (len, state) =
        crc_of_prefix(Path::new(&ctx.output), ctx.out_bytes).map_err(|e| io_at(&ctx.output, e))?;
    if len < ctx.out_bytes {
        return Err(FevesError::CheckpointStale(format!(
            "output {} is {len} bytes, shorter than the {} committed by the checkpoint",
            ctx.output, ctx.out_bytes
        ))
        .into());
    }
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

/// An open encode session: encoder, input, output and checkpoint state,
/// positioned at the first frame still to encode.
pub struct Session {
    enc: FevesEncoder,
    input: Y4mFile,
    writer: Y4mWriter<BufWriter<CrcFile>>,
    ctx: ResumeContext,
    mgr: Option<CheckpointManager>,
}

impl Session {
    /// Open a session for the job `ctx` describes over `input`.
    ///
    /// With `resume` — a checkpoint's encoder state plus the prefix CRC
    /// state [`validate_checkpoint`] returned — the output is truncated to
    /// `ctx.out_bytes` (anything past it is a torn frame from the previous
    /// attempt) and encoding continues at `ctx.frames_done` — the frame
    /// `input` was [opened at](open_input), where reading resumes. Without,
    /// the output is created, the context's progress fields are reset and
    /// reading starts at frame 0 wherever `input` was opened.
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
        let (fingerprint, mut input) = (input.fingerprint, input.file);
        let header = input.scan().header;
        let (platform, mut cfg) = build_config(&ctx, header.resolution)?;
        extras(&mut cfg);
        cfg.mode = ExecutionMode::Functional;
        let out_path = Path::new(&ctx.output);
        let (enc, writer) = match resume {
            Some((state, prefix_crc_state)) => {
                let enc = FevesEncoder::restore(platform, cfg, state)?;
                (input.seek_located()).map_err(|e| io_at(&ctx.input, e))?;
                // Seeding the CRC with the verified prefix makes the final
                // artifact checksum cover the whole file, every attempt.
                let file = CrcFile::reopen(out_path, prefix_crc_state, ctx.out_bytes)
                    .map_err(|e| io_at(&ctx.output, e))?;
                let out = BufWriter::with_capacity(OUT_BUF, file);
                (enc, Y4mWriter::resume(out, header))
            }
            None => {
                let enc = FevesEncoder::new(platform, cfg)?;
                (input.seek_first()).map_err(|e| io_at(&ctx.input, e))?;
                let file = CrcFile::create(out_path).map_err(|e| io_at(&ctx.output, e))?;
                ctx.n_frames = input.scan().n_frames;
                ctx.input_fingerprint = fingerprint;
                (ctx.frames_done, ctx.out_bytes, ctx.out_crc) = (0, 0, 0);
                let out = BufWriter::with_capacity(OUT_BUF, file);
                (enc, Y4mWriter::new(out, header))
            }
        };
        let mgr = ckpt_dir.map(|dir| CheckpointManager::new(dir, ctx.keep));
        Ok(Session {
            enc,
            input,
            writer,
            ctx,
            mgr,
        })
    }

    /// Fail if the input is no longer the file the opening scan saw
    /// ([`Y4mFile::unchanged`]). Frames are read as they are encoded, so an
    /// input rewritten meanwhile would become an artifact of neither
    /// version under the old fingerprint: checked before every checkpoint
    /// commit and before the artifact is declared complete.
    fn input_unchanged(&self) -> Result<(), SessionError> {
        let same = (self.input.unchanged()).map_err(|e| io_at(&self.ctx.input, e))?;
        same.then_some(())
            .ok_or_else(|| io_at(&self.ctx.input, INPUT_CHANGED))
    }

    /// The session's encoder, for attaching telemetry before [`Self::run`].
    pub fn encoder_mut(&mut self) -> &mut FevesEncoder {
        &mut self.enc
    }

    /// Make the output durable up to the frame boundary `done` — flush and
    /// fsync it — and note that progress, its bytes and their CRC in the
    /// context. Refused when the input is no longer the file it was.
    fn secure(&mut self, done: usize) -> Result<(), SessionError> {
        self.input_unchanged()?;
        let flushed = self.writer.flush();
        flushed.map_err(|e| io_at(&self.ctx.output, e))?;
        let file = self.writer.get_ref().get_ref();
        file.sync().map_err(|e| io_at(&self.ctx.output, e))?;
        (self.ctx.frames_done, self.ctx.out_bytes, self.ctx.out_crc) =
            (done, file.bytes(), file.crc());
        Ok(())
    }

    /// Make the frame boundary `done` durable ([`Self::secure`]), then
    /// commit a checkpoint claiming exactly those bytes and their CRC.
    /// Cadence commits are only requested when armed, so being asked with
    /// no checkpoint directory means a stop request that cannot be kept.
    fn commit(
        &mut self,
        done: usize,
        stopping: bool,
        hooks: &mut dyn SessionHooks,
    ) -> Result<(), SessionError> {
        if self.mgr.is_none() {
            return Err(SessionError::Interrupted);
        }
        let started = Instant::now();
        self.secure(done)?;
        // Checkpoints commit only at quiesced frame boundaries: drain any
        // in-flight pipeline generation before snapshotting.
        self.enc.quiesce_pipeline();
        let state = self.enc.snapshot();
        let mgr = self.mgr.as_ref().expect("checked on entry");
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
        let (header, n_frames) = (self.input.scan().header, self.input.scan().n_frames);
        // The one input frame a session holds: each read overwrites it.
        let mut frame = Frame::new(header.resolution).map_err(|e| io_at(&self.ctx.input, e))?;
        for i in self.ctx.frames_done..n_frames {
            if hooks.stop_requested() {
                self.commit(i, true, hooks)?;
                return Ok(self.finished(true));
            }
            hooks.before_frame(i);
            // The scan saw `n_frames` whole frames: a clean end is one gone.
            let read = self.input.read_frame_into(&mut frame);
            if !read.map_err(|e| io_at(&self.ctx.input, e))? {
                return Err(io_at(&self.ctx.input, INPUT_CHANGED));
            }
            let report = self.enc.encode_frame(&frame);
            let (y, u, v) = self
                .enc
                .last_reconstruction_yuv()
                .expect("a functional-mode encode leaves a reconstruction");
            self.writer
                .write_yuv(y, u, v)
                .map_err(|e| io_at(&self.ctx.output, e))?;
            hooks.on_frame(report);
            let done = i + 1;
            if self.mgr.is_some()
                && self.ctx.every > 0
                && done.is_multiple_of(self.ctx.every)
                && done < n_frames
                && !hooks.shed_cadence_commit()
            {
                self.commit(done, false, hooks)?;
            }
        }
        self.secure(n_frames)?;
        Ok(self.finished(false))
    }

    fn finished(self, interrupted: bool) -> Finished {
        Finished {
            encoder: self.enc,
            context: self.ctx,
            interrupted,
        }
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

    /// An opened `n_frames`-frame input claiming to hash to `fingerprint`.
    fn input(dir: &Path, fingerprint: u64, n_frames: usize) -> Input {
        let mut bytes = b"YUV4MPEG2 W16 H16 F25:1\n".to_vec();
        for _ in 0..n_frames {
            bytes.extend_from_slice(b"FRAME\n");
            bytes.extend_from_slice(&[128; 16 * 16 * 3 / 2]);
        }
        let path = dir.join(format!("in{n_frames}.y4m"));
        std::fs::write(&path, bytes).unwrap();
        Input {
            fingerprint,
            ..open_input(&path.to_string_lossy(), 0).unwrap()
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
        let state = validate_checkpoint(&ctx, &input(&dir, 0xF00D, 3)).unwrap();
        assert_eq!(state, Some(!crc32(committed)));

        let stale = |r: Result<Option<u32>, SessionError>, needle: &str| match r {
            Err(SessionError::Feves(FevesError::CheckpointStale(m))) => {
                assert!(m.contains(needle), "{m}")
            }
            other => panic!("expected CheckpointStale({needle}), got {other:?}"),
        };
        stale(
            validate_checkpoint(&ctx, &input(&dir, 0xBEEF, 3)),
            "changed since the checkpoint was taken",
        );
        stale(
            validate_checkpoint(&ctx, &input(&dir, 0xF00D, 4)),
            "has 4 frames, checkpoint expects 3",
        );
        on_disk(&committed[..10]);
        stale(
            validate_checkpoint(&ctx, &input(&dir, 0xF00D, 3)),
            "is 10 bytes, shorter than the 41 committed",
        );

        let mut rotted = committed.to_vec();
        rotted[7] ^= 0x01;
        on_disk(&rotted);
        match validate_checkpoint(&ctx, &input(&dir, 0xF00D, 3)) {
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
            validate_checkpoint(&at_zero, &input(&dir, 0xF00D, 3)).unwrap(),
            None
        );
        // …but the input checks still apply to it.
        stale(
            validate_checkpoint(&at_zero, &input(&dir, 0xBEEF, 3)),
            "changed since",
        );
        // An unreadable output is an I/O error, not a verdict on the
        // checkpoint.
        assert!(matches!(
            validate_checkpoint(&ctx, &input(&dir, 0xF00D, 3)),
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
    fn the_kernels_field_does_not_move_the_platform() {
        // A checkpoint written before the kernel family left still carries
        // `"scalar"`; it builds what a context without the field builds.
        let none = context(&std::env::temp_dir(), 0, b"");
        let scalar = ResumeContext {
            kernels: Some("scalar".into()),
            ..none.clone()
        };
        let built = |c: &ResumeContext| format!("{:?}", build_config(c, Resolution::QCIF).unwrap());
        assert_eq!(built(&scalar), built(&none));
    }

    #[test]
    fn unreadable_input_is_io_but_unparsable_or_empty_is_a_bad_job() {
        let dir = std::env::temp_dir().join(format!("feves-input-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = |name: &str| dir.join(name).to_string_lossy().into_owned();
        assert!(matches!(
            open_input(&path("missing.y4m"), 0),
            Err(SessionError::Io(_))
        ));
        std::fs::write(path("garbage.y4m"), b"not a y4m stream\n").unwrap();
        assert!(matches!(
            open_input(&path("garbage.y4m"), 0),
            Err(SessionError::BadJob(_))
        ));
        std::fs::write(
            path("empty.y4m"),
            b"YUV4MPEG2 W176 H144 F25:1 Ip A1:1 C420jpeg\n",
        )
        .unwrap();
        match open_input(&path("empty.y4m"), 0) {
            Err(SessionError::BadJob(m)) => assert!(m.ends_with("empty.y4m: empty input"), "{m}"),
            other => panic!("expected BadJob, got {:?}", other.map(|_| ())),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
