//! Running the real `feves` binary: spawn, time-stamp its stdout lines, reap
//! it with `wait4` for its own exact CPU time and peak RSS, and parse what it
//! printed.
//!
//! The workspace vendors no `libc`, so `wait4(2)` and `kill(2)` are bound
//! directly, as `feves_serve::signal` binds `signal(2)`.

use std::io::{self, BufRead, BufReader, Read};
use std::process::{Command, Stdio};
use std::time::Instant;

/// `SIGTERM`, what `feves encode` turns into a committed checkpoint.
pub const SIGTERM: i32 = 15;

#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// `struct rusage` of 64-bit Linux: two `timeval`s and fourteen `long`s, of
/// which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn kill(pid: i32, sig: i32) -> i32;
}

/// How a child ended.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Exit {
    Code(i32),
    Signal(i32),
}

/// What one child cost, for that child only.
#[derive(Clone, Copy, Debug)]
pub struct Usage {
    /// Spawn to reaped, seconds.
    pub wall_s: f64,
    pub user_s: f64,
    pub sys_s: f64,
    /// Peak resident set, MiB.
    pub peak_rss_mb: f64,
    /// This process's own peak RSS when it spawned the child, MiB. The
    /// kernel starts a child's `ru_maxrss` from its parent's, so a reading
    /// at or under this floor says nothing about the child.
    pub rss_floor_mb: f64,
    pub exit: Exit,
}

impl Usage {
    pub fn cpu_s(&self) -> f64 {
        self.user_s + self.sys_s
    }

    /// Append to `problems` when `peak_rss_mb` is only the inherited floor.
    pub fn check_rss(&self, problems: &mut Vec<String>) {
        if self.peak_rss_mb <= self.rss_floor_mb {
            problems.push(format!(
                "peak RSS {:.1} MB is not above the benchmark's own {:.1} MB; the reading is void",
                self.peak_rss_mb, self.rss_floor_mb
            ));
        }
    }
}

/// This process's own peak RSS in MiB (0 where /proc does not say).
fn own_peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let hwm = status.lines().find_map(|l| l.strip_prefix("VmHWM:"));
    let kb = hwm.and_then(|v| v.split_whitespace().next()?.parse::<f64>().ok());
    kb.unwrap_or(0.0) / 1024.0
}

/// Send `sig` to `pid`.
pub fn signal(pid: u32, sig: i32) -> io::Result<()> {
    // SAFETY: kill(2) takes two integers and touches no memory of ours.
    match unsafe { kill(pid as i32, sig) } {
        0 => Ok(()),
        _ => Err(io::Error::last_os_error()),
    }
}

/// Block until `pid` (a child of this process that nothing else reaps) ends;
/// return its exit and its own resource usage.
fn reap(pid: u32) -> io::Result<(Exit, Rusage)> {
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: both pointers are to live, correctly laid-out locals that
        // wait4(2) fills in; the call retains neither.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut ru) };
        if r == pid as i32 {
            break;
        }
        let e = io::Error::last_os_error();
        if e.kind() != io::ErrorKind::Interrupted {
            return Err(e);
        }
    }
    let exit = match status & 0x7f {
        0 => Exit::Code((status >> 8) & 0xff),
        sig => Exit::Signal(sig),
    };
    Ok((exit, ru))
}

/// One finished child.
pub struct Run {
    pub usage: Usage,
    /// Each stdout line with its arrival time in seconds since the spawn.
    /// Rust's stdout is line-buffered even into a pipe, so a line arrives
    /// when the program printed it.
    pub lines: Vec<(f64, String)>,
    pub stderr: String,
}

impl Run {
    pub fn ok(&self) -> bool {
        self.usage.exit == Exit::Code(0)
    }
}

/// Spawn `cmd`, collect its output and reap it. `on_line` sees every stdout
/// line as it arrives, with the child's pid (the resume probe signals from
/// there).
pub fn run_with(cmd: &mut Command, mut on_line: impl FnMut(&str, u32)) -> io::Result<Run> {
    cmd.stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped());
    let rss_floor_mb = own_peak_rss_mb();
    let t0 = Instant::now();
    let mut child = cmd.spawn()?;
    let pid = child.id();
    let stdout = child.stdout.take().expect("stdout was piped");
    let mut stderr_pipe = child.stderr.take().expect("stderr was piped");
    let mut lines = Vec::new();
    let stderr = std::thread::scope(|s| {
        // A full stderr pipe must not stall the child while stdout is read.
        let err = s.spawn(move || {
            let mut text = String::new();
            stderr_pipe.read_to_string(&mut text).map(|_| text)
        });
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            let at = t0.elapsed().as_secs_f64();
            on_line(&line, pid);
            lines.push((at, line));
        }
        err.join().expect("stderr reader does not panic")
    });
    // Reaped here, never through `child`: only wait4 returns the rusage of
    // exactly this process.
    let (exit, ru) = reap(pid)?;
    let wall_s = t0.elapsed().as_secs_f64();
    let secs = |t: Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
    Ok(Run {
        usage: Usage {
            wall_s,
            user_s: secs(ru.ru_utime),
            sys_s: secs(ru.ru_stime),
            peak_rss_mb: ru.ru_maxrss as f64 / 1024.0,
            rss_floor_mb,
            exit,
        },
        lines,
        stderr: stderr?,
    })
}

/// [`run_with`] without a line callback.
pub fn run(cmd: &mut Command) -> io::Result<Run> {
    run_with(cmd, |_, _| {})
}

/// One recognised stdout line of `feves encode` / `feves resume`.
#[derive(Clone, Debug, PartialEq)]
pub enum CliLine {
    /// `<input>: WxH, N frames`
    Header {
        width: usize,
        height: usize,
        frames: usize,
    },
    /// `frame    3 (P)     12345 bits  PSNR-Y  38.12 dB  sim   21.40 ms`
    Frame {
        index: usize,
        intra: bool,
        bits: u64,
        psnr_y: f64,
        sim_ms: f64,
    },
    /// `wrote <out> — N bits total, mean PSNR-Y X dB`
    Wrote {
        total_bits: u64,
        mean_psnr_y: f64,
    },
    /// `resumed at frame S; encoded K more frame(s) into <out>`
    Resumed {
        start: usize,
        more: usize,
    },
    Blank,
}

/// Parse one stdout line of an encode or resume; `None` for anything the
/// benchmark does not know, which fails the operation that printed it.
pub fn parse_cli_line(line: &str) -> Option<CliLine> {
    let t: Vec<&str> = line.split_whitespace().collect();
    match t.as_slice() {
        [] => Some(CliLine::Blank),
        ["frame", index, kind @ ("(I)" | "(P)"), bits, "bits", "PSNR-Y", psnr, "dB", "sim", sim, "ms"] => {
            Some(CliLine::Frame {
                index: index.parse().ok()?,
                intra: *kind == "(I)",
                bits: bits.parse().ok()?,
                psnr_y: psnr.parse().ok()?,
                sim_ms: sim.parse().ok()?,
            })
        }
        ["wrote", .., "—", bits, "bits", "total,", "mean", "PSNR-Y", psnr, "dB"] => {
            Some(CliLine::Wrote {
                total_bits: bits.parse().ok()?,
                mean_psnr_y: psnr.parse().ok()?,
            })
        }
        ["resumed", "at", "frame", start, "encoded", more, "more", "frame(s)", "into", ..] => {
            Some(CliLine::Resumed {
                start: start.strip_suffix(';')?.parse().ok()?,
                more: more.parse().ok()?,
            })
        }
        [.., geometry, frames, "frames"] if t.len() >= 4 && t[t.len() - 4].ends_with(':') => {
            let (w, h) = geometry.strip_suffix(',')?.split_once('x')?;
            Some(CliLine::Header {
                width: w.parse().ok()?,
                height: h.parse().ok()?,
                frames: frames.parse().ok()?,
            })
        }
        _ => None,
    }
}

/// The exit summary of `feves serve`:
/// `farm: C completed, F failed, R rejected, T retried, K checkpointed (idle|drained)`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FarmSummary {
    pub completed: usize,
    pub failed: usize,
    pub rejected: usize,
    pub retried: usize,
    pub checkpointed: usize,
    pub drained: bool,
}

pub fn parse_farm_summary(line: &str) -> Option<FarmSummary> {
    let t: Vec<&str> = line.split_whitespace().collect();
    match t.as_slice() {
        ["farm:", c, "completed,", f, "failed,", r, "rejected,", re, "retried,", k, "checkpointed", how @ ("(idle)" | "(drained)")] => {
            Some(FarmSummary {
                completed: c.parse().ok()?,
                failed: f.parse().ok()?,
                rejected: r.parse().ok()?,
                retried: re.parse().ok()?,
                checkpointed: k.parse().ok()?,
                drained: *how == "(drained)",
            })
        }
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wait4_accounts_for_a_trivial_child() {
        // Burn a little CPU and allocate nothing much: user time is small
        // but positive, wall covers it, and the peak RSS is a real size.
        let r = run(Command::new("sh").args([
            "-c",
            "i=0; while [ $i -lt 20000 ]; do i=$((i+1)); done; echo done",
        ]))
        .unwrap();
        assert!(r.ok(), "{:?}", r.usage.exit);
        assert_eq!(r.lines.len(), 1);
        assert_eq!(r.lines[0].1, "done");
        assert!(r.usage.cpu_s() > 0.0 && r.usage.cpu_s() < r.usage.wall_s + 0.5);
        assert!(r.usage.wall_s >= r.lines[0].0);
        assert!(r.usage.peak_rss_mb > 0.1 && r.usage.peak_rss_mb < 512.0);
        assert!(r.usage.rss_floor_mb > 0.1, "own VmHWM is readable");
    }

    #[test]
    fn exit_code_and_signal_are_told_apart() {
        let r = run(Command::new("sh").args(["-c", "echo oops >&2; exit 3"])).unwrap();
        assert_eq!(r.usage.exit, Exit::Code(3));
        assert_eq!(r.stderr, "oops\n");
        let r = run_with(
            Command::new("sh").args(["-c", "echo up; exec sleep 30"]),
            |l, pid| {
                assert_eq!(l, "up");
                signal(pid, SIGTERM).unwrap();
            },
        )
        .unwrap();
        assert_eq!(r.usage.exit, Exit::Signal(SIGTERM));
    }

    #[test]
    fn parses_every_line_an_encode_prints() {
        assert_eq!(
            parse_cli_line("target/w/in.y4m: 176x144, 32 frames"),
            Some(CliLine::Header {
                width: 176,
                height: 144,
                frames: 32
            })
        );
        assert_eq!(
            parse_cli_line("frame    0 (I)    118746 bits  PSNR-Y  38.85 dB  sim    0.00 ms"),
            Some(CliLine::Frame {
                index: 0,
                intra: true,
                bits: 118746,
                psnr_y: 38.85,
                sim_ms: 0.0
            })
        );
        assert_eq!(
            parse_cli_line("frame   17 (P)      9120 bits  PSNR-Y  36.02 dB  sim    1.37 ms"),
            Some(CliLine::Frame {
                index: 17,
                intra: false,
                bits: 9120,
                psnr_y: 36.02,
                sim_ms: 1.37
            })
        );
        assert_eq!(parse_cli_line(""), Some(CliLine::Blank));
        assert_eq!(
            parse_cli_line("wrote out.y4m — 401234 bits total, mean PSNR-Y 36.40 dB"),
            Some(CliLine::Wrote {
                total_bits: 401234,
                mean_psnr_y: 36.4
            })
        );
        assert_eq!(
            parse_cli_line("resumed at frame 96; encoded 96 more frame(s) into out.y4m"),
            Some(CliLine::Resumed {
                start: 96,
                more: 96
            })
        );
    }

    #[test]
    fn unknown_or_damaged_lines_are_not_guessed_at() {
        assert_eq!(parse_cli_line("warning: something new"), None);
        assert_eq!(
            parse_cli_line("frame    x (P) 1 bits  PSNR-Y 1 dB  sim 1 ms"),
            None
        );
        assert_eq!(
            parse_cli_line("frame 1 (B) 1 bits  PSNR-Y 1 dB  sim 1 ms"),
            None
        );
    }

    #[test]
    fn parses_the_farm_summary() {
        assert_eq!(
            parse_farm_summary(
                "farm: 24 completed, 0 failed, 1 rejected, 2 retried, 0 checkpointed (idle)"
            ),
            Some(FarmSummary {
                completed: 24,
                failed: 0,
                rejected: 1,
                retried: 2,
                checkpointed: 0,
                drained: false
            })
        );
        assert_eq!(parse_farm_summary("farm: done"), None);
    }
}
