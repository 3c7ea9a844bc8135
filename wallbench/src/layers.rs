//! The traced run: per-layer metrics of one workload's *probe clip*, the
//! head of its input.
//!
//! The clip is encoded by the real CLI (the `cli.*`, `ft.*` and `serve.*`
//! probes) and replayed in-process through each crate's public functions
//! with a span around every call (`video.*`, `codec.*`, `sched.*`, `core.*`,
//! `obs.*`). The codec replay is the call sequence of
//! `core::framework::execute_kernels` on one device over all rows, so it is
//! the plain single-threaded baseline; its reconstruction must equal the
//! CLI's artifact and every frame's bitstream must decode back to it.

use crate::child::{self, CliLine, SIGTERM};
use crate::cli::{
    check_artifact, ckpt_dir, digest_encode, encode_cmd, fingerprint, verify, Encoded, Fingerprint,
    Ops,
};
use crate::e2e::{encode_once, jobs_over, set_up, Inputs};
use crate::farm::{run_batch, run_paced, Daemon};
use crate::gen::arrival_schedule;
use crate::spec::{Kind, Workload, FARM_MAX_INFLIGHT, KERNELS, PLATFORM};
use crate::stats::{median, percentile};
use crate::trace::Tracer;
use crate::{Ctx, Outcome};
use feves::codec::inter_loop::ReferenceStore;
use feves::codec::kernels::{force_kind, KernelKind};
use feves::codec::{chroma, dbl, decoder, entropy, intra, mc, me, recon, sme, SubpelFrame};
use feves::core::prelude::*;
use feves::ft::io::CrcFile;
use feves::obs::{hub, BusController, LiveConfig, NoopRecorder};
use feves::sched::{BalanceInput, FevesBalancer, LoadBalancer};
use feves::video::frame::Frame;
use feves::video::geometry::RowRange;
use feves::video::metrics::psnr;
use feves::video::plane::Plane;
use feves::video::y4m::{Y4mHeader, Y4mReader, Y4mWriter};
use std::io::{BufReader, BufWriter};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant};

type Metrics = Vec<(&'static str, f64)>;

/// The probe clip and the CLI's own encode of it, which every in-process
/// pass and every farm job is held to.
struct Probe<'a> {
    ctx: &'a Ctx,
    /// The workload cut down to the clip: same flags, `probe_frames` frames.
    w: Workload,
    dir: PathBuf,
    inputs: Inputs,
    /// The clip, decoded.
    frames: Vec<Frame>,
    /// The CLI's artifact, decoded.
    expect: Vec<Frame>,
    /// Its length and CRC-32.
    reference: Fingerprint,
}

impl Probe<'_> {
    fn input(&self) -> &Path {
        &self.inputs.paths[0]
    }

    fn frames(&self) -> &[Frame] {
        &self.frames
    }
}

/// The spans that make up one frame of the codec replay, and the metric
/// each one's per-frame median is reported as.
const CODEC_SPANS: &[(&str, &str)] = &[
    ("int", "codec.int_ms_per_frame"),
    ("me", "codec.me_ms_per_frame"),
    ("sme", "codec.sme_ms_per_frame"),
    ("mc", "codec.mc_ms_per_frame"),
    ("tq", "codec.tq_ms_per_frame"),
    ("itq", "codec.itq_ms_per_frame"),
    ("dbl", "codec.dbl_ms_per_frame"),
    ("chroma", "codec.chroma_ms_per_frame"),
    ("entropy", "codec.entropy_ms_per_frame"),
    ("alloc", "codec.alloc_ms_per_frame"),
];

/// True when the display regions of two planes hold the same pixels.
fn same_pixels(a: &Plane<u8>, b: &Plane<u8>) -> bool {
    let (w, h) = (a.width().min(b.width()), a.height().min(b.height()));
    (a.width(), a.height()) == (b.width(), b.height())
        && (0..h).all(|y| a.row(y)[..w] == b.row(y)[..w])
}

fn same_frame(f: &Frame, y: &Plane<u8>, u: &Plane<u8>, v: &Plane<u8>) -> bool {
    same_pixels(f.y(), y) && same_pixels(f.u(), u) && same_pixels(f.v(), v)
}

fn encode_params(w: &Workload) -> EncodeParams {
    EncodeParams {
        search_area: SearchArea(w.sa),
        n_ref: 1,
        qp: w.qp,
        qp_intra: w.qp.saturating_sub(1),
    }
}

/// The platform and configuration `feves encode` builds from the
/// workload's flags (`--kernels fast` leaves the device profiles as they
/// are).
fn encoder(w: &Workload, mode: ExecutionMode) -> std::io::Result<FevesEncoder> {
    force_kind(KernelKind::Fast);
    let mut cfg = EncoderConfig::full_hd(encode_params(w));
    cfg.resolution = w.res;
    cfg.mode = mode;
    FevesEncoder::new(Platform::sys_hk(), cfg).map_err(std::io::Error::other)
}

/// What the codec replay counted.
struct Replay {
    recon: Vec<Frame>,
    bits: Vec<u64>,
    nonzero_levels: Vec<usize>,
    decode_mismatch: usize,
    /// Wall time of each frame's codec calls, ms, whether or not spans are
    /// being recorded.
    frame_ms: Vec<f64>,
}

/// Encode `frames` the way `execute_kernels` does, single device, all rows,
/// one thread, with a span around each call into `feves_codec`.
fn replay_codec(frames: &[Frame], params: &EncodeParams, t: &mut Tracer) -> Replay {
    force_kind(KernelKind::Fast);
    let mut out = Replay {
        recon: Vec::new(),
        bits: Vec::new(),
        nonzero_levels: Vec::new(),
        decode_mismatch: 0,
        frame_ms: Vec::new(),
    };
    let (mb_cols, n_rows) = (frames[0].mb_cols(), frames[0].mb_rows());
    let all = RowRange::new(0, n_rows);
    let mut store = ReferenceStore::new(params.n_ref);
    // The reconstruction waiting to become a reference: interpolated at the
    // start of the next frame, as the framework does.
    let mut pending: Option<(Plane<u8>, Plane<u8>, Plane<u8>)> = None;
    let keep = |f: &Frame, y: &Plane<u8>, u: &Plane<u8>, v: &Plane<u8>| {
        let mut r = f.clone();
        r.y_mut().copy_from(y);
        r.u_mut().copy_from(u);
        r.v_mut().copy_from(v);
        r
    };

    for (i, frame) in frames.iter().enumerate() {
        let id = i as u64;
        let cf = frame.y();
        let started = Instant::now();
        t.begin("codec", "frame", id);
        let Some((py, pu, pv)) = pending.take() else {
            let (y, c) = t.span("codec", "intra", id, || {
                let y = intra::encode_intra_frame(cf, params.qp_intra);
                let c = chroma::encode_chroma_intra(
                    frame.u(),
                    frame.v(),
                    mb_cols,
                    n_rows,
                    params.qp_intra,
                );
                (y, c)
            });
            t.end();
            out.frame_ms.push(started.elapsed().as_secs_f64() * 1e3);
            out.bits.push(y.bits + c.bits);
            out.recon
                .push(keep(frame, &y.recon, &c.recon_u, &c.recon_v));
            pending = Some((y.recon, c.recon_u, c.recon_v));
            continue;
        };

        let mut sf = t.span("codec", "alloc", id, || {
            SubpelFrame::new(py.width(), py.height())
        });
        t.span("codec", "int", id, || sf.interpolate_rows(&py, all));
        store.push_yuv(py, sf, pu, pv);
        let rfs = store.rf_planes();
        let sfs = store.sfs();

        let mut me_field = t.span("codec", "alloc", id, || me::MeField::new(mb_cols, n_rows));
        t.span("codec", "me", id, || {
            me::motion_estimate_rows_parallel(cf, &rfs, params, all, me_field.rows_mut(all))
        });

        let mut sme_field = t.span("codec", "alloc", id, || sme::SmeField::new(mb_cols, n_rows));
        t.span("codec", "sme", id, || {
            let me_rows = me_field.rows(all).to_vec();
            sme::sme_rows_parallel(cf, &sfs, &me_rows, all, sme_field.rows_mut(all))
        });

        let (mut modes, mut pred, mut residual) = t.span("codec", "alloc", id, || {
            (
                mc::ModeField::new(mb_cols, n_rows),
                Plane::<u8>::new(cf.width(), cf.height()),
                Plane::<i16>::new(cf.width(), cf.height()),
            )
        });
        t.span("codec", "mc", id, || {
            mc::mc_rows(
                cf,
                &sfs,
                sme_field.rows(all),
                params.qp,
                all,
                &mut modes,
                &mut pred,
                &mut residual,
            )
        });

        let mut coeffs = t.span("codec", "alloc", id, || {
            recon::CoeffField::new(mb_cols, n_rows)
        });
        t.span("codec", "tq", id, || {
            recon::tq_rows(&residual, params.qp, false, all, &mut coeffs)
        });
        let mut rec = t.span("codec", "alloc", id, || {
            Plane::<u8>::new(cf.width(), cf.height())
        });
        t.span("codec", "itq", id, || {
            recon::itq_recon_rows(&coeffs, &pred, params.qp, all, &mut rec)
        });
        t.span("codec", "dbl", id, || {
            dbl::deblock_frame(&mut rec, &modes, &coeffs, params.qp)
        });

        let (refs_u, refs_v) = store
            .chroma_planes()
            .expect("references are pushed with chroma");
        let ch = t.span("codec", "chroma", id, || {
            let n = refs_u.len().min(params.n_ref);
            chroma::encode_chroma_inter(
                frame.u(),
                frame.v(),
                &refs_u[..n],
                &refs_v[..n],
                &modes,
                params.qp,
            )
        });
        let (stream, bits) = t.span("codec", "entropy", id, || {
            entropy::encode_frame_yuv(&modes, &coeffs, &ch.coeffs, params.qp)
        });
        t.span("video", "psnr", id, || std::hint::black_box(psnr(&rec, cf)));
        t.end();
        out.frame_ms.push(started.elapsed().as_secs_f64() * 1e3);

        // Off the frame's clock: the stream must decode to what was coded.
        let decoded = t.span("check", "decode", id, || {
            decoder::decode_inter_frame_yuv(&stream, &store)
        });
        let round_trips = decoded.is_ok_and(|d| {
            d.y == rec
                && d.chroma
                    .is_some_and(|(u, v)| u == ch.recon_u && v == ch.recon_v)
        });
        out.decode_mismatch += usize::from(!round_trips);
        out.bits.push(bits);
        out.nonzero_levels
            .push(coeffs.nonzero_levels() + ch.coeffs.nonzero_levels());
        out.recon.push(keep(frame, &rec, &ch.recon_u, &ch.recon_v));
        pending = Some((rec, ch.recon_u, ch.recon_v));
    }
    out
}

/// Per-frame medians of the codec spans over the P-frames, and the layer
/// shares on stderr. Returns `codec.serial_ms_per_frame`.
fn codec_metrics(t: &Tracer, w: &Workload, replay: &Replay, m: &mut Metrics) -> f64 {
    let p_frames = 1..replay.recon.len() as u64;
    let mut serial = vec![0.0; p_frames.clone().count()];
    let mut medians = Vec::new();
    for (span, metric) in CODEC_SPANS {
        let by_id = t.ms_by_id("codec", span);
        let per_frame: Vec<f64> = p_frames
            .clone()
            .map(|id| by_id.get(&id).copied().unwrap_or(0.0))
            .collect();
        for (sum, v) in serial.iter_mut().zip(&per_frame) {
            *sum += v;
        }
        medians.push((*span, median(&per_frame)));
        m.push((metric, median(&per_frame)));
    }
    let serial_ms = median(&serial);
    m.push(("codec.serial_ms_per_frame", serial_ms));
    let sum_of_medians: f64 = medians.iter().map(|(_, v)| v).sum();
    let shares: Vec<String> = medians
        .iter()
        .map(|(n, v)| format!("{n} {:.1}%", v / sum_of_medians * 100.0))
        .collect();
    eprintln!(
        "  codec shares of a P-frame ({serial_ms:.3} ms serial, span medians sum to {sum_of_medians:.3}): {}",
        shares.join(", ")
    );
    let intra = t.ms_by_id("codec", "intra");
    m.push(("codec.intra_ms", intra.get(&0).copied().unwrap_or(f64::NAN)));
    let psnr_ms: Vec<f64> = t.ms_by_id("video", "psnr").into_values().collect();
    m.push(("video.psnr_ms_per_frame", median(&psnr_ms)));

    let mbs = (replay.recon[0].mb_cols() * replay.recon[0].mb_rows()) as f64;
    let sad_evals = mbs * f64::from(w.sa) * f64::from(w.sa);
    let me_ms = medians
        .iter()
        .find(|(n, _)| *n == "me")
        .map_or(f64::NAN, |x| x.1);
    m.push(("codec.sad_evals_per_frame", sad_evals));
    m.push(("codec.me_ns_per_sad_eval", me_ms * 1e6 / sad_evals));
    let padded = w.res.padded();
    m.push(("codec.sf_mb_per_ref", (16 * padded.pixels()) as f64 / 1e6));
    let p_bits: Vec<f64> = replay.bits[1..].iter().map(|&b| b as f64).collect();
    m.push(("codec.bits_per_frame", median(&p_bits)));
    let levels: Vec<f64> = replay.nonzero_levels.iter().map(|&n| n as f64).collect();
    m.push(("codec.nonzero_levels_per_frame", median(&levels)));
    m.push(("codec.decode_mismatch", replay.decode_mismatch as f64));
    serial_ms
}

/// Whole-file read + parse, as the CLI ingests; per-frame write through the
/// CRC-ing file the CLI writes artifacts with.
fn video_io(
    p: &Probe,
    t: &mut Tracer,
    out: &Path,
    recon: &[Frame],
    full_input_frames: usize,
    m: &mut Metrics,
) -> std::io::Result<()> {
    let n = recon.len() as f64;
    let read = t.span("video", "y4m_read", 0, || -> std::io::Result<usize> {
        let raw = std::fs::read(p.input())?;
        let frames = Y4mReader::new(std::io::Cursor::new(raw))
            .and_then(|mut r| r.read_all())
            .map_err(std::io::Error::other)?;
        Ok(frames.len())
    })?;
    assert_eq!(read, recon.len(), "probe clip re-read");
    let header = Y4mHeader {
        resolution: p.w.res,
        fps: (25, 1),
    };
    let mut writer = Y4mWriter::new(BufWriter::new(CrcFile::create(out)?), header);
    for (i, f) in recon.iter().enumerate() {
        t.span("video", "y4m_write", i as u64, || writer.write_frame(f))
            .map_err(std::io::Error::other)?;
    }
    t.span("video", "y4m_write", recon.len() as u64 - 1, || {
        writer.finish().map(drop)
    })
    .map_err(std::io::Error::other)?;
    let total = |name| t.ms_by_id("video", name).values().sum::<f64>();
    m.push(("video.y4m_read_ms_per_frame", total("y4m_read") / n));
    m.push(("video.y4m_write_ms_per_frame", total("y4m_write") / n));
    let frame_bytes = p.w.res.pixels() * 3 / 2 + 6;
    m.push((
        "video.input_mb",
        (full_input_frames * frame_bytes) as f64 / 1e6,
    ));
    Ok(())
}

/// One pass of `FevesEncoder::encode_frame` over the clip; returns the
/// P-frame times in ms and the encoder in its final state.
fn encode_frame_pass(
    p: &Probe,
    t: &mut Tracer,
    name: &'static str,
    mut enc: FevesEncoder,
    problems: &mut Vec<String>,
) -> (Vec<f64>, FevesEncoder) {
    let frames = p.frames();
    let mut differs = 0;
    for (i, f) in frames.iter().enumerate() {
        t.span("core", name, i as u64, || enc.encode_frame(f));
        let same = enc
            .last_reconstruction_yuv()
            .is_some_and(|(y, u, v)| same_frame(&p.expect[i], y, u, v));
        differs += usize::from(!same);
    }
    if differs > 0 {
        problems.push(format!(
            "{name}: {differs} reconstructed frame(s) differ from the CLI artifact"
        ));
    }
    let by_id = t.ms_by_id("core", name);
    let p_ms = (1..frames.len() as u64).filter_map(|i| by_id.get(&i).copied());
    (p_ms.collect(), enc)
}

/// Commit checkpoints of `enc`'s final state the way the CLI's
/// `commit_checkpoint` does: quiesce, snapshot, durable write.
fn checkpoint_commits(
    p: &Probe,
    t: &mut Tracer,
    enc: &mut FevesEncoder,
    m: &mut Metrics,
) -> std::io::Result<()> {
    const COMMITS: u64 = 12;
    let (w, dir) = (&p.w, &p.dir);
    let mgr = CheckpointManager::new(dir.join("inproc.ckpt"), 2);
    let mut ctx = ResumeContext {
        input: p.input().display().to_string(),
        output: dir.join("inproc.y4m").display().to_string(),
        platform: PLATFORM.into(),
        platform_json: None,
        sa: w.sa,
        refs: 1,
        qp: w.qp,
        balancer: "feves".into(),
        kernels: Some(KERNELS.into()),
        faults: Vec::new(),
        deadline_factor: None,
        flight_out: None,
        metrics_out: None,
        every: 4,
        keep: 2,
        frames_done: 0,
        n_frames: w.frames,
        out_bytes: 0,
        input_fingerprint: 0,
        pipeline: false,
        out_crc: 0,
    };
    let mut kb = 0.0;
    for i in 0..COMMITS {
        ctx.frames_done = i as usize + 1;
        let path = t.span("core", "ckpt_commit", i, || {
            enc.quiesce_pipeline();
            let state = enc.snapshot();
            mgr.write(&ctx, &state, &NoopRecorder)
        })?;
        kb = std::fs::metadata(path)?.len() as f64 / 1024.0;
    }
    let ms: Vec<f64> = t.ms_by_id("core", "ckpt_commit").into_values().collect();
    m.push(("core.ckpt_commit_ms", median(&ms)));
    m.push(("core.ckpt_kb", kb));
    Ok(())
}

/// The encode_frame passes: telemetry off, then everything `feves encode
/// --metrics-out --live-out --flight-out` switches on.
fn core_and_obs(
    p: &Probe,
    t: &mut Tracer,
    serial_ms: f64,
    m: &mut Metrics,
    problems: &mut Vec<String>,
) -> std::io::Result<()> {
    let enc = encoder(&p.w, ExecutionMode::Functional)?;
    let (off, mut enc) = encode_frame_pass(p, t, "encode_frame", enc, problems);
    let p50 = median(&off);
    m.push(("core.encode_frame_ms_p50", p50));
    m.push(("core.encode_frame_ms_p90", percentile(&off, 90.0)));
    m.push(("core.parallel_gain", serial_ms / p50));
    checkpoint_commits(p, t, &mut enc, m)?;

    let mut enc = encoder(&p.w, ExecutionMode::Functional)?;
    let scope = hub().session("wallbench");
    let mut bus = BusController::start(
        1 << 16,
        Some(LiveConfig {
            path: p.dir.join("inproc.live.json"),
            period: Duration::from_millis(50),
        }),
    );
    scope.attach_bus(bus.bus());
    enc.set_scope(scope.clone());
    enc.enable_flight(p.frames().len());
    let (on, _) = encode_frame_pass(p, t, "encode_frame_obs", enc, problems);
    bus.stop();
    scope.sync_dropped();
    let overhead = median(&on) - p50;
    m.push(("obs.overhead_ms_per_frame", overhead));
    m.push(("obs.overhead_pct", overhead / p50 * 100.0));
    m.push(("obs.dropped_events", bus.bus().stats().dropped as f64));
    Ok(())
}

/// Scheduling on the virtual clock: one timing-only frame at the workload's
/// resolution, one Algorithm-2 solve at its row count, and the paper's
/// 1080p result.
fn sched_and_timing(t: &mut Tracer, w: &Workload, m: &mut Metrics) -> std::io::Result<()> {
    const FRAMES: usize = 200;
    let mut enc = encoder(w, ExecutionMode::TimingOnly)?;
    enc.run_timing(20);
    let report = t.span("core", "run_timing", 0, || enc.run_timing(FRAMES));
    let ms = t.ms_by_id("core", "run_timing")[&0];
    m.push(("core.timing_frame_us", ms * 1e3 / FRAMES as f64));

    let prev = report.frames.last().and_then(|f| f.distribution.clone());
    let mut balancer = FevesBalancer::default();
    for i in 0..FRAMES as u64 {
        t.span("sched", "distribute", i, || {
            std::hint::black_box(balancer.distribute(&BalanceInput {
                n_rows: enc.geometry().n_rows,
                platform: enc.platform(),
                perf: enc.perf(),
                prev: prev.as_ref(),
            }))
        });
    }
    let us: Vec<f64> = t
        .ms_by_id("sched", "distribute")
        .values()
        .map(|ms| ms * 1e3)
        .collect();
    m.push(("sched.distribute_us", median(&us)));

    let paper = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(32),
        n_ref: 1,
        ..EncodeParams::default()
    });
    let mut enc = FevesEncoder::new(Platform::sys_hk(), paper).map_err(std::io::Error::other)?;
    m.push(("core.virtual_fps_1080p", enc.run_timing(100).mean_fps()));
    Ok(())
}

/// `cli.*`, `core.virtual_fps`, `core.ckpt_commits` from the CLI's encode of
/// the probe clip.
fn cli_metrics(cli: &Encoded, inproc_ms: f64, m: &mut Metrics) {
    let n = cli.frames.len() as f64;
    let wall_ms = cli.usage.wall_s * 1e3;
    let first = cli.frames.first().map_or(f64::NAN, |f| f.at * 1e3);
    let last = cli.frames.last().map_or(f64::NAN, |f| f.at * 1e3);
    let gaps = cli.p_frame_gaps_ms();
    eprintln!(
        "  frame_ms percentiles over the {} P-frame gaps of the CLI probe",
        gaps.len()
    );
    m.push(("frame_ms_p50", median(&gaps)));
    m.push(("frame_ms_p90", percentile(&gaps, 90.0)));
    m.push((
        "cli.startup_ms",
        cli.header_at.map_or(f64::NAN, |at| at * 1e3),
    ));
    m.push(("cli.first_frame_ms", first));
    m.push(("cli.teardown_ms", wall_ms - last));
    m.push(("cli.shell_ms_per_frame", (wall_ms - inproc_ms) / n));
    m.push(("cli.cpu_util", cli.usage.cpu_s() / cli.usage.wall_s));
    m.push(("core.virtual_fps", cli.virtual_fps()));
    let commits = cli
        .stderr
        .lines()
        .filter(|l| l.starts_with("checkpoint "))
        .count();
    m.push(("core.ckpt_commits", commits as f64));
}

/// SIGTERM an encode of the clip half way, check it committed a checkpoint
/// and exited 0, `feves resume` it, and require the finished artifact to be
/// the uninterrupted one.
fn resume_probe(p: &Probe, ops: &mut Ops, m: &mut Metrics) -> std::io::Result<()> {
    let (ctx, w) = (p.ctx, &p.w);
    let output = p.dir.join("resume.y4m");
    let _ = std::fs::remove_dir_all(ckpt_dir(&output));
    let every = if w.checkpoint_every > 0 {
        w.checkpoint_every
    } else {
        4
    };
    // The child polls its shutdown flag before each frame and has already
    // passed that point by the time a signal sent on a frame's line lands,
    // so the checkpoint falls two frames after the line that triggers it.
    let stop_at = (w.frames / 2).saturating_sub(1);
    let mut signalled = false;
    let mut cmd = encode_cmd(&ctx.feves, w, p.input(), &output, every);
    let run = child::run_with(&mut cmd, |line, pid| {
        let at_stop = matches!(
            child::parse_cli_line(line),
            Some(CliLine::Frame { index, .. }) if index >= stop_at
        );
        if at_stop && !signalled {
            signalled = child::signal(pid, SIGTERM).is_ok();
        }
    })?;
    let mut problems = Vec::new();
    let cut = digest_encode(run, w.res, w.frames, 0, false, &mut problems);
    let committed = cut
        .stderr
        .lines()
        .find_map(|l| l.strip_prefix("interrupted: checkpoint committed at frame "))
        .and_then(|n| n.trim().parse::<usize>().ok());
    if committed.is_none() {
        problems.push("SIGTERM did not end in a committed checkpoint".into());
    }
    if committed.is_some_and(|n| n != cut.frames.len()) {
        problems.push(format!(
            "checkpoint at frame {committed:?}, {} frame lines printed",
            cut.frames.len()
        ));
    }
    ops.record("interrupted encode", &problems);
    let Some(committed) = committed else {
        return Ok(());
    };

    let mut problems = Vec::new();
    let run = child::run(
        Command::new(&ctx.feves)
            .arg("resume")
            .arg(ckpt_dir(&output)),
    )?;
    let resumed = digest_encode(run, w.res, w.frames, committed, true, &mut problems);
    if resumed.resumed != Some((committed, w.frames - committed)) {
        problems.push(format!(
            "resume reported {:?}, the checkpoint was at frame {committed}",
            resumed.resumed
        ));
    }
    if fingerprint(&output)? != p.reference {
        problems.push("resumed artifact differs from the uninterrupted one".into());
    }
    verify(&ctx.feves, &output, &mut problems);
    ops.record("feves resume", &problems);
    let first = resumed.frames.first().map_or(f64::NAN, |f| f.at * 1e3);
    m.push(("ft.resume_to_first_frame_ms", first));
    Ok(())
}

/// The farm over jobs of the probe clip: two jobs one at a time on an idle
/// farm, an open loop at the workload's rate, and a closed batch.
fn serve_probe(
    p: &Probe,
    standalone_ms: f64,
    ops: &mut Ops,
    m: &mut Metrics,
) -> std::io::Result<()> {
    const IDLE_JOBS: usize = 2;
    let (ctx, w, dir, inputs) = (p.ctx, &p.w, &p.dir, &p.inputs);
    let prints = [p.reference];
    let mut daemons: Vec<Daemon> = Vec::new();
    let mut submit_ms = Vec::new();

    // Far enough apart that each job finds the farm idle.
    let gap_s = standalone_ms / 1e3 * 1.5 + 0.15;
    let due: Vec<f64> = (0..IDLE_JOBS).map(|i| i as f64 * gap_s).collect();
    let jobs = jobs_over(dir, "idle", IDLE_JOBS, inputs, &prints)?;
    if let Some(p) = run_paced(&ctx.feves, w, &dir.join("spool-idle"), &jobs, &due, ops) {
        if !p.latencies_ms.is_empty() {
            let overhead = median(&p.latencies_ms) - standalone_ms;
            m.push(("serve.job_overhead_ms", overhead));
        }
        submit_ms.extend(p.submit_ms);
        daemons.push(p.daemon);
    }

    let n = w.probe_jobs;
    let due = arrival_schedule(ctx.seed, n, w.paced_rate);
    let jobs = jobs_over(dir, "paced", n, inputs, &prints)?;
    if let Some(p) = run_paced(&ctx.feves, w, &dir.join("spool-paced"), &jobs, &due, ops) {
        if !p.latencies_ms.is_empty() {
            m.push((
                "serve.job_latency_ms_p90",
                percentile(&p.latencies_ms, 90.0),
            ));
        }
        m.push(("serve.slo_miss_ratio", p.slo_misses as f64 / n as f64));
        m.push(("serve.gen_late_ms_max", p.gen_late_ms_max));
        submit_ms.extend(p.submit_ms);
        daemons.push(p.daemon);
    }

    let n = match w.kind {
        Kind::Farm => w.probe_jobs,
        Kind::Encode => FARM_MAX_INFLIGHT.parse().expect("a small integer"),
    };
    let jobs = jobs_over(dir, "batch", n, inputs, &prints)?;
    if let Some(d) = run_batch(&ctx.feves, w, &dir.join("spool-batch"), &jobs, ops) {
        m.push((
            "serve.batch_cpu_util",
            d.usage.cpu_s() / d.usage.wall_s / 2.0,
        ));
        daemons.push(d);
    }

    if !submit_ms.is_empty() {
        m.push(("serve.submit_ms", median(&submit_ms)));
    }
    if daemons.len() == 3 {
        let sum = |f: fn(&Daemon) -> usize| daemons.iter().map(f).sum::<usize>() as f64;
        m.push(("serve.completed", sum(|d| d.summary.completed)));
        m.push(("serve.failed", sum(|d| d.summary.failed)));
        m.push(("serve.rejected", sum(|d| d.summary.rejected)));
        m.push(("serve.retried", sum(|d| d.summary.retried)));
    }
    Ok(())
}

pub fn run(ctx: &Ctx, w: &Workload) -> std::io::Result<Outcome> {
    let dir = ctx.fresh_dir(&format!("{}-traced", w.name))?;
    let mut ops = Ops::default();
    let mut m: Metrics = Vec::new();
    // The probe clip: the head of the workload's first input, with its flags.
    let clip = Workload {
        frames: w.probe_frames,
        inputs: 1,
        ..*w
    };
    let inputs = set_up(ctx, &clip, &dir, &mut ops)?;

    // The CLI's own encode of the clip: the artifact everything is held to.
    let artifact = dir.join("cli.y4m");
    let mut problems = Vec::new();
    let cli = encode_once(ctx, &clip, &inputs.paths[0], &artifact, &mut problems)?;
    let verified = verify(&ctx.feves, &artifact, &mut problems);
    let cli_psnr = cli.wrote.map(|(_, mean)| mean);
    check_artifact(&artifact, &inputs.paths[0], cli_psnr, &mut problems);
    if !problems.is_empty() {
        ops.record("CLI probe encode", &problems);
        return Ok(Outcome {
            ops,
            metrics: m,
            by_the_clock: Vec::new(),
        });
    }
    let read_all = |path: &Path| {
        Y4mReader::new(BufReader::new(std::fs::File::open(path)?))
            .and_then(|mut r| r.read_all())
            .map_err(std::io::Error::other)
    };
    let p = Probe {
        ctx,
        w: clip,
        reference: fingerprint(&artifact)?,
        frames: read_all(&inputs.paths[0])?,
        expect: read_all(&artifact)?,
        dir,
        inputs,
    };
    if let Some(v) = verified {
        m.push(("ft.verify_mb_per_s", p.reference.0 as f64 / 1e6 / v.wall_s));
    }

    // In-process, traced: every layer under its own span.
    let mut t = Tracer::new(true);
    let params = encode_params(w);
    let replay = replay_codec(p.frames(), &params, &mut t);
    let differs = replay
        .recon
        .iter()
        .zip(&p.expect)
        .filter(|(a, b)| !same_frame(a, b.y(), b.u(), b.v()))
        .count();
    if differs > 0 {
        problems.push(format!(
            "codec replay: {differs} reconstructed frame(s) differ from the CLI artifact"
        ));
    }
    if replay.decode_mismatch > 0 {
        problems.push(format!(
            "{} bitstream(s) do not decode to the encoder's reconstruction",
            replay.decode_mismatch
        ));
    }
    if !cli
        .frames
        .iter()
        .map(|f| f.bits)
        .eq(replay.bits.iter().copied())
    {
        problems.push("codec replay and CLI disagree on the bits of a frame".into());
    }
    let serial_ms = codec_metrics(&t, w, &replay, &mut m);
    // The same replay with the tracer off is what tracing costs; medians
    // over the P-frames, so that the first pass warming the caches is not
    // booked as overhead.
    let untraced = replay_codec(p.frames(), &params, &mut Tracer::new(false));
    let (on, off) = (
        median(&replay.frame_ms[1..]),
        median(&untraced.frame_ms[1..]),
    );
    m.push(("trace_overhead_pct", (on - off) / off * 100.0));

    let inproc = p.dir.join("inproc.y4m");
    video_io(&p, &mut t, &inproc, &replay.recon, w.frames, &mut m)?;
    if fingerprint(&inproc)? != p.reference {
        problems.push("in-process artifact differs from the CLI's".into());
    }
    core_and_obs(&p, &mut t, serial_ms, &mut m, &mut problems)?;
    sched_and_timing(&mut t, w, &mut m)?;
    ops.record("CLI probe encode and its in-process replay", &problems);

    let total = |layer, name| t.ms_by_id(layer, name).values().sum::<f64>();
    let inproc_ms =
        total("video", "y4m_read") + total("core", "encode_frame") + total("video", "y4m_write");
    cli_metrics(&cli, inproc_ms, &mut m);

    resume_probe(&p, &mut ops, &mut m)?;
    serve_probe(&p, cli.usage.wall_s * 1e3, &mut ops, &mut m)?;

    let trace_path = ctx.work.join("trace.json");
    t.write_chrome(&mut BufWriter::new(std::fs::File::create(&trace_path)?))?;
    eprintln!(
        "  {} spans written to {}",
        t.spans().len(),
        trace_path.display()
    );
    Ok(Outcome {
        ops,
        metrics: m,
        by_the_clock: Vec::new(),
    })
}
