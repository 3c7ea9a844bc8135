//! The commands the benchmark drives and the checks on what they produce.
//! Shared by the end-to-end run and the traced run's CLI probes.

use crate::child::{self, parse_cli_line, CliLine, Run, Usage};
use crate::spec::{Workload, FARM_MAX_INFLIGHT, FARM_POLL_MS, KERNELS, PLATFORM, REFS};
use feves::ft::ckpt::{crc32_update, CRC32_INIT};
use feves::video::geometry::Resolution;
use feves::video::metrics::psnr;
use feves::video::y4m::Y4mReader;
use std::ffi::OsString;
use std::io::{BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::Command;

/// Counts operations and names each failure on stderr. An operation is one
/// encode run or one farm job; any failed check on it fails it once.
#[derive(Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
}

impl Ops {
    pub fn record(&mut self, what: &str, problems: &[String]) {
        self.attempted += 1;
        if !problems.is_empty() {
            self.failed += 1;
            for p in problems {
                eprintln!("FAILED {what}: {p}");
            }
        }
    }
}

fn with_suffix(path: &Path, suffix: &str) -> PathBuf {
    let mut s = OsString::from(path);
    s.push(suffix);
    PathBuf::from(s)
}

/// Where `feves encode` puts the checkpoints of `output`.
pub fn ckpt_dir(output: &Path) -> PathBuf {
    with_suffix(output, ".ckpt")
}

fn codec_flags(c: &mut Command, w: &Workload) {
    c.args(["--platform", PLATFORM, "--refs", REFS]).args([
        "--sa",
        &w.sa.to_string(),
        "--qp",
        &w.qp.to_string(),
    ]);
}

/// `feves encode <input> <output>` with the workload's flags;
/// `checkpoint_every` is the workload's own except in the resume probe.
pub fn encode_cmd(
    feves: &Path,
    w: &Workload,
    input: &Path,
    output: &Path,
    checkpoint_every: usize,
) -> Command {
    let mut c = Command::new(feves);
    c.arg("encode").arg(input).arg(output);
    codec_flags(&mut c, w);
    c.args(["--kernels", KERNELS]);
    if checkpoint_every > 0 {
        c.args(["--checkpoint-every", &checkpoint_every.to_string()]);
    }
    if w.telemetry {
        c.arg("--live-out")
            .arg(with_suffix(output, ".live.json"))
            .args(["--live-every", "50"])
            .arg("--flight-out")
            .arg(with_suffix(output, ".flight.jsonl"))
            .arg("--metrics-out")
            .arg(with_suffix(output, ".metrics.jsonl"));
    }
    c
}

/// `feves submit <spool> <input> <output> --id <id>` with the same codec
/// flags as [`encode_cmd`], so the farm's artifact must equal the CLI's.
pub fn submit_cmd(
    feves: &Path,
    w: &Workload,
    spool: &Path,
    input: &Path,
    output: &Path,
    id: &str,
) -> Command {
    let mut c = Command::new(feves);
    c.arg("submit").arg(spool).arg(input).arg(output);
    c.args(["--id", id]);
    codec_flags(&mut c, w);
    c
}

/// `feves serve <spool>`: two sessions in flight, 50 ms poll. Kernels are
/// process-wide in the daemon, chosen by the environment.
pub fn serve_cmd(feves: &Path, spool: &Path, exit_when_idle: bool) -> Command {
    let mut c = Command::new(feves);
    c.arg("serve").arg(spool);
    c.args(["--platform", PLATFORM])
        .args(["--max-inflight", FARM_MAX_INFLIGHT])
        .args(["--poll-ms", FARM_POLL_MS]);
    if exit_when_idle {
        c.arg("--exit-when-idle");
    }
    c.env("FEVES_KERNELS", KERNELS);
    c
}

/// One `frame` line and when it arrived.
#[derive(Clone, Copy, Debug)]
pub struct FrameLine {
    /// Seconds since the spawn.
    pub at: f64,
    pub intra: bool,
    pub bits: u64,
    pub psnr_y: f64,
    pub sim_ms: f64,
}

/// What an encode (or resume) run printed and cost.
pub struct Encoded {
    pub usage: Usage,
    /// Arrival of the `<input>: WxH, N frames` line (encode only).
    pub header_at: Option<f64>,
    pub frames: Vec<FrameLine>,
    /// `(total bits, mean PSNR-Y)` of the `wrote` line, absent when the run
    /// was interrupted.
    pub wrote: Option<(u64, f64)>,
    /// `(start, more)` of the `resumed at frame` line.
    pub resumed: Option<(usize, usize)>,
    pub stderr: String,
}

impl Encoded {
    /// Milliseconds each P-frame took: the gap from the previous `frame`
    /// line to its own.
    pub fn p_frame_gaps_ms(&self) -> Vec<f64> {
        self.frames
            .windows(2)
            .filter(|w| !w[1].intra)
            .map(|w| (w[1].at - w[0].at) * 1e3)
            .collect()
    }

    pub fn total_bits(&self) -> u64 {
        self.frames.iter().map(|f| f.bits).sum()
    }

    /// Mean over the `frame` lines, as `EncodeReport::mean_psnr` takes it.
    pub fn mean_psnr_y(&self) -> f64 {
        let finite: Vec<f64> = self
            .frames
            .iter()
            .map(|f| f.psnr_y)
            .filter(|p| p.is_finite())
            .collect();
        finite.iter().sum::<f64>() / finite.len().max(1) as f64
    }

    /// P-frames per second of simulated time: the paper's result on the
    /// virtual clock, from the CLI's own `sim` column.
    pub fn virtual_fps(&self) -> f64 {
        let p: Vec<f64> = self
            .frames
            .iter()
            .filter(|f| !f.intra)
            .map(|f| f.sim_ms)
            .collect();
        p.len() as f64 / (p.iter().sum::<f64>() / 1e3)
    }
}

/// Turn a finished encode or resume into numbers, appending to `problems`
/// everything that is wrong with it: a non-zero exit, a stdout line the
/// parser does not know, a header that disagrees with the input, frame
/// lines out of sequence, or a summary that disagrees with the frame lines.
/// `first_frame..frames` is the range of frame lines a complete run prints;
/// `complete` is false for the run the resume probe interrupts.
pub fn digest_encode(
    run: Run,
    res: Resolution,
    frames: usize,
    first_frame: usize,
    complete: bool,
    problems: &mut Vec<String>,
) -> Encoded {
    if !run.ok() {
        let last = run.stderr.lines().last().unwrap_or("");
        problems.push(format!("exit {:?}: {last}", run.usage.exit));
    }
    let mut e = Encoded {
        usage: run.usage,
        header_at: None,
        frames: Vec::new(),
        wrote: None,
        resumed: None,
        stderr: run.stderr,
    };
    for (at, line) in &run.lines {
        match parse_cli_line(line) {
            Some(CliLine::Header {
                width,
                height,
                frames: n,
            }) => {
                e.header_at = Some(*at);
                if (width, height, n) != (res.width, res.height, frames) {
                    problems.push(format!(
                        "CLI read {width}x{height} x {n}, input is {}x{} x {frames}",
                        res.width, res.height
                    ));
                }
            }
            Some(CliLine::Frame {
                index,
                intra,
                bits,
                psnr_y,
                sim_ms,
            }) => {
                let want = first_frame + e.frames.len();
                if index != want {
                    problems.push(format!("frame line {index} where {want} was due"));
                }
                e.frames.push(FrameLine {
                    at: *at,
                    intra,
                    bits,
                    psnr_y,
                    sim_ms,
                });
            }
            Some(CliLine::Wrote {
                total_bits,
                mean_psnr_y,
            }) => e.wrote = Some((total_bits, mean_psnr_y)),
            Some(CliLine::Resumed { start, more }) => e.resumed = Some((start, more)),
            Some(CliLine::Blank) => {}
            None => problems.push(format!("unrecognised stdout line: {line:?}")),
        }
    }
    if !complete {
        return e;
    }
    if first_frame + e.frames.len() != frames {
        problems.push(format!(
            "{} frame lines from frame {first_frame}, input has {frames} frames",
            e.frames.len()
        ));
    }
    match e.wrote {
        None => problems.push("no `wrote` summary line".into()),
        Some((bits, mean)) => {
            if bits != e.total_bits() {
                problems.push(format!(
                    "summary says {bits} bits, frame lines add up to {}",
                    e.total_bits()
                ));
            }
            if (mean - e.mean_psnr_y()).abs() > 0.01 {
                problems.push(format!(
                    "summary PSNR-Y {mean} dB, frame lines average {:.4}",
                    e.mean_psnr_y()
                ));
            }
        }
    }
    e
}

/// `feves verify <path>` must accept `path`.
pub fn verify(feves: &Path, path: &Path, problems: &mut Vec<String>) -> Option<Usage> {
    match child::run(Command::new(feves).arg("verify").arg(path)) {
        Ok(r) if r.ok() && r.lines.iter().any(|(_, l)| l.contains(": ok (")) => Some(r.usage),
        Ok(r) => {
            problems.push(format!(
                "feves verify rejects {}: {}",
                path.display(),
                r.stderr.trim()
            ));
            None
        }
        Err(e) => {
            problems.push(format!("feves verify: {e}"));
            None
        }
    }
}

/// Hold an artifact against its input, both streamed frame by frame: same
/// geometry, same frame count, and a PSNR-Y, recomputed here with
/// `feves_video::metrics`, within 0.01 dB of the mean the CLI printed.
pub fn check_artifact(
    artifact: &Path,
    input: &Path,
    cli_mean_psnr_y: Option<f64>,
    problems: &mut Vec<String>,
) {
    let open = |p: &Path| {
        let file = std::fs::File::open(p).map_err(|e| format!("{}: {e}", p.display()))?;
        Y4mReader::new(BufReader::new(file)).map_err(|e| format!("{}: {e}", p.display()))
    };
    let (mut out, mut inp) = match (open(artifact), open(input)) {
        (Ok(a), Ok(b)) => (a, b),
        (a, b) => {
            problems.extend(a.err().into_iter().chain(b.err()));
            return;
        }
    };
    if out.header().resolution != inp.header().resolution {
        problems.push(format!(
            "artifact is {:?}, input {:?}",
            out.header().resolution,
            inp.header().resolution
        ));
        return;
    }
    let (mut n, mut sum, mut finite) = (0usize, 0.0, 0usize);
    loop {
        match (out.read_frame(), inp.read_frame()) {
            (Ok(Some(a)), Ok(Some(b))) => {
                n += 1;
                let p = psnr(a.y(), b.y());
                if p.is_finite() {
                    sum += p;
                    finite += 1;
                }
            }
            (Ok(None), Ok(None)) => break,
            (Ok(a), Ok(_)) => {
                let (short, long) = if a.is_some() {
                    ("input", "artifact")
                } else {
                    ("artifact", "input")
                };
                problems.push(format!("{short} ends after {n} frames, {long} goes on"));
                return;
            }
            (a, b) => {
                let e = a.err().or(b.err()).expect("one side failed");
                problems.push(format!("frame {n} of {}: {e}", artifact.display()));
                return;
            }
        }
    }
    if let Some(cli) = cli_mean_psnr_y {
        let mean = sum / finite.max(1) as f64;
        if (mean - cli).abs() > 0.01 {
            problems.push(format!("recomputed PSNR-Y {mean:.4} dB, CLI printed {cli}"));
        }
    }
}

/// Length and CRC-32 of a file: enough to call two artifacts the same bytes.
pub type Fingerprint = (u64, u32);

/// The [`Fingerprint`] of a file, streamed.
pub fn fingerprint(path: &Path) -> std::io::Result<Fingerprint> {
    let mut file = std::fs::File::open(path)?;
    let mut buf = vec![0u8; 1 << 20];
    let (mut len, mut state) = (0u64, CRC32_INIT);
    loop {
        let n = file.read(&mut buf)?;
        if n == 0 {
            return Ok((len, !state));
        }
        len += n as u64;
        state = crc32_update(state, &buf[..n]);
    }
}

/// The `status` of a farm done record, after its integrity trailer checked
/// out.
pub fn read_done(path: &Path) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let body = feves::serve::job::unframe_control(&text).map_err(|e| e.to_string())?;
    let v = serde_json::value_from_str(body).map_err(|e| e.to_string())?;
    let status = v.get("status").and_then(|s| s.as_str());
    Ok(status.ok_or("done record without a status")?.to_string())
}
