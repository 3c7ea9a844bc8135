//! `feves` — command-line front end.
//!
//! ```text
//! feves platforms                          list the built-in platforms
//! feves export-platform [name]             dump a platform as JSON
//! feves simulate [options]                 timing-only 1080p run (virtual clock)
//! feves encode <in.y4m> [out.y4m] [opts]   functional encode of a Y4M file
//! feves resume <ckpt|dir> [options]        continue a crashed encode session
//! feves verify <artifact|ckpt|spool>       validate checksums + container structure
//! feves serve <spool> [options]            supervised encode-farm daemon
//! feves submit <spool> <in.y4m> [out]      drop an encode job into a spool
//! feves drain <spool>                      ask the daemon to drain and exit
//! feves trace [options|trace.jsonl]        steady-state frame Gantt, or analyze
//!                                          a farm causal-trace log
//! feves stats [options|live.json]          run + print the metrics summary
//! feves top <live.json> [--once]           live dashboard over a snapshot file
//! feves report <flight.jsonl|live.json> [--html]  audit a flight log / live run
//! feves compare <baseline> <new>           regression gate over two summaries
//! ```
//!
//! Options: `feves --help` lists every flag (a unit test keeps that list
//! and [`parse_options`] in step).
//!
//! Exit codes: 0 success, 1 runtime failure (one-line `error:` on stderr,
//! no usage banner) or a failed `compare` gate, 2 usage error (banner
//! shown).

use feves::core::prelude::*;
use feves::core::session::{self, Commit, Session, SessionError, SessionHooks};
use feves::ft::ckpt::{crc32_update, fnv1a64, CKPT_MAGIC, CRC32_INIT};
use feves::ft::crash::crash_point_at;
use feves::obs::{
    compare_reports, compare_reports_metric, parse_flight_jsonl, render_html, write_atomic,
    LiveConfig, LiveSnapshot, LiveWriter, MemoryRecorder, NoopRecorder, Recorder, SessionScope,
};
use feves::video::y4m::{self, Y4mScan};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

/// A bad invocation (unknown command/flag, missing positional, malformed
/// flag value): one line on stderr, then the usage banner, exit 2.
/// Everything that goes wrong *after* a well-formed invocation is
/// `Runtime`: one line on stderr, no banner, exit 1.
enum CliError {
    Usage(String),
    Runtime(String),
}

impl CliError {
    fn usage(e: impl ToString) -> Self {
        CliError::Usage(e.to_string())
    }
    fn runtime(e: impl ToString) -> Self {
        CliError::Runtime(e.to_string())
    }
}

/// A job description the driver cannot use is the invocation's fault;
/// everything else it reports went wrong after a well-formed one.
impl From<SessionError> for CliError {
    fn from(e: SessionError) -> Self {
        match e {
            SessionError::BadJob(m) => CliError::Usage(m),
            other => CliError::Runtime(other.to_string()),
        }
    }
}

type CliResult<T = ()> = Result<T, CliError>;

struct Options {
    platform: String,
    platform_file: Option<String>,
    sa: u16,
    refs: usize,
    qp: u8,
    frames: usize,
    balancer: String,
    metrics_out: Option<String>,
    faults: Vec<String>,
    deadline_factor: Option<f64>,
    flight_out: Option<String>,
    html: bool,
    out: Option<String>,
    threshold: f64,
    checkpoint_every: usize,
    checkpoint_dir: Option<String>,
    checkpoint_keep: usize,
    live_out: Option<String>,
    live_every_ms: u64,
    interval_ms: u64,
    once: bool,
    allow_stale: bool,
    queue_cap: usize,
    high_watermark: Option<usize>,
    max_inflight: usize,
    retry_budget: u32,
    poll_ms: u64,
    exit_when_idle: bool,
    id: Option<String>,
    chaos_kill_at: Option<usize>,
    chaos_device: Option<usize>,
    pipeline: bool,
    metric: Option<String>,
    trace_out: Option<String>,
    no_trace: bool,
    perfetto: Option<String>,
    disk_low_mb: u64,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            platform: "syshk".into(),
            platform_file: None,
            sa: 32,
            refs: 1,
            qp: 28,
            frames: 30,
            balancer: "feves".into(),
            metrics_out: None,
            faults: Vec::new(),
            deadline_factor: None,
            flight_out: None,
            html: false,
            out: None,
            threshold: 0.10,
            checkpoint_every: 0,
            checkpoint_dir: None,
            checkpoint_keep: 2,
            live_out: None,
            live_every_ms: 250,
            interval_ms: 1000,
            once: false,
            allow_stale: false,
            queue_cap: 64,
            high_watermark: None,
            max_inflight: 2,
            retry_budget: 2,
            poll_ms: 50,
            exit_when_idle: false,
            id: None,
            chaos_kill_at: None,
            chaos_device: None,
            pipeline: false,
            metric: None,
            trace_out: None,
            no_trace: false,
            perfetto: None,
            disk_low_mb: 0,
        }
    }
}

fn parse_options(args: &[String]) -> Result<(Options, Vec<String>), String> {
    let mut opts = Options::default();
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut grab =
            || -> Result<&String, String> { it.next().ok_or_else(|| format!("{a} needs a value")) };
        match a.as_str() {
            "--platform" => opts.platform = grab()?.to_lowercase(),
            "--platform-file" => opts.platform_file = Some(grab()?.clone()),
            "--sa" => opts.sa = grab()?.parse().map_err(|e| format!("--sa: {e}"))?,
            "--refs" => opts.refs = grab()?.parse().map_err(|e| format!("--refs: {e}"))?,
            "--qp" => opts.qp = grab()?.parse().map_err(|e| format!("--qp: {e}"))?,
            "--frames" => opts.frames = grab()?.parse().map_err(|e| format!("--frames: {e}"))?,
            "--balancer" => opts.balancer = grab()?.to_lowercase(),
            "--metrics-out" => opts.metrics_out = Some(grab()?.clone()),
            "--inject-fault" => opts.faults.push(grab()?.clone()),
            "--deadline-factor" => {
                opts.deadline_factor = Some(
                    grab()?
                        .parse()
                        .map_err(|e| format!("--deadline-factor: {e}"))?,
                )
            }
            // One kernel family runs; the flag stays so scripts that name it
            // keep working.
            "--kernels" => match grab()?.as_str() {
                "fast" => {}
                other => return Err(format!("--kernels: unknown value '{other}' (only fast)")),
            },
            "--flight-out" => opts.flight_out = Some(grab()?.clone()),
            "--html" => opts.html = true,
            "--out" => opts.out = Some(grab()?.clone()),
            "--threshold" => {
                opts.threshold = grab()?.parse().map_err(|e| format!("--threshold: {e}"))?
            }
            "--checkpoint-every" => {
                opts.checkpoint_every = grab()?
                    .parse()
                    .map_err(|e| format!("--checkpoint-every: {e}"))?
            }
            "--checkpoint-dir" => opts.checkpoint_dir = Some(grab()?.clone()),
            "--checkpoint-keep" => {
                opts.checkpoint_keep = grab()?
                    .parse()
                    .map_err(|e| format!("--checkpoint-keep: {e}"))?
            }
            "--live-out" => opts.live_out = Some(grab()?.clone()),
            "--live-every" => {
                opts.live_every_ms = grab()?.parse().map_err(|e| format!("--live-every: {e}"))?;
                if opts.live_every_ms == 0 {
                    return Err("--live-every: must be >= 1 ms".into());
                }
            }
            "--interval" => {
                opts.interval_ms = grab()?.parse().map_err(|e| format!("--interval: {e}"))?;
                if opts.interval_ms == 0 {
                    return Err("--interval: must be >= 1 ms".into());
                }
            }
            "--once" => opts.once = true,
            "--allow-stale" => opts.allow_stale = true,
            "--queue-cap" => {
                opts.queue_cap = grab()?.parse().map_err(|e| format!("--queue-cap: {e}"))?
            }
            "--high-watermark" => {
                opts.high_watermark = Some(
                    grab()?
                        .parse()
                        .map_err(|e| format!("--high-watermark: {e}"))?,
                )
            }
            "--max-inflight" => {
                opts.max_inflight = grab()?
                    .parse()
                    .map_err(|e| format!("--max-inflight: {e}"))?
            }
            "--retry-budget" => {
                opts.retry_budget = grab()?
                    .parse()
                    .map_err(|e| format!("--retry-budget: {e}"))?
            }
            "--poll-ms" => {
                opts.poll_ms = grab()?.parse().map_err(|e| format!("--poll-ms: {e}"))?;
                if opts.poll_ms == 0 {
                    return Err("--poll-ms: must be >= 1 ms".into());
                }
            }
            "--exit-when-idle" => opts.exit_when_idle = true,
            "--id" => opts.id = Some(grab()?.clone()),
            "--chaos-kill-at" => {
                opts.chaos_kill_at = Some(
                    grab()?
                        .parse()
                        .map_err(|e| format!("--chaos-kill-at: {e}"))?,
                )
            }
            "--chaos-device" => {
                opts.chaos_device = Some(
                    grab()?
                        .parse()
                        .map_err(|e| format!("--chaos-device: {e}"))?,
                )
            }
            "--pipeline" => {
                opts.pipeline = match grab()?.to_lowercase().as_str() {
                    "on" => true,
                    "off" => false,
                    other => return Err(format!("--pipeline: unknown mode '{other}' (on|off)")),
                }
            }
            "--metric" => opts.metric = Some(grab()?.clone()),
            "--trace-out" => opts.trace_out = Some(grab()?.clone()),
            "--no-trace" => opts.no_trace = true,
            "--perfetto" => opts.perfetto = Some(grab()?.clone()),
            "--disk-low-mb" => {
                opts.disk_low_mb = grab()?.parse().map_err(|e| format!("--disk-low-mb: {e}"))?
            }
            _ if a.starts_with("--") => return Err(format!("unknown option {a}")),
            _ => positional.push(a.clone()),
        }
    }
    Ok((opts, positional))
}

impl Options {
    /// `--live-out` / `--live-every` as the snapshot writer's config.
    fn live(&self) -> Option<LiveConfig> {
        self.live_out.as_ref().map(|path| LiveConfig {
            path: PathBuf::from(path),
            period: std::time::Duration::from_millis(self.live_every_ms),
        })
    }

    /// The encode job these flags describe, as the session driver's (and
    /// the checkpoint's) job description. A `--platform-file` is read here:
    /// the context carries its content, not its path.
    fn job_context(&self, input: &str, output: &str) -> CliResult<ResumeContext> {
        let platform_json = match &self.platform_file {
            Some(path) => Some(
                std::fs::read_to_string(path)
                    .map_err(|e| CliError::runtime(format!("{path}: {e}")))?,
            ),
            None => None,
        };
        Ok(ResumeContext {
            input: input.to_string(),
            output: output.to_string(),
            platform: self.platform.clone(),
            platform_json,
            sa: self.sa,
            refs: self.refs,
            qp: self.qp,
            balancer: self.balancer.clone(),
            kernels: None,
            faults: self.faults.clone(),
            deadline_factor: self.deadline_factor,
            flight_out: self.flight_out.clone(),
            metrics_out: self.metrics_out.clone(),
            every: self.checkpoint_every,
            keep: self.checkpoint_keep,
            frames_done: 0,
            n_frames: 0,
            out_bytes: 0,
            input_fingerprint: 0,
            pipeline: self.pipeline,
            out_crc: 0,
        })
    }
}

/// Platform + timing-mode config for the commands that simulate rather
/// than encode a file.
fn config_of(opts: &Options, resolution: Resolution) -> CliResult<(Platform, EncoderConfig)> {
    let ctx = opts.job_context("", "")?;
    Ok(session::build_config(&ctx, resolution)?)
}

fn cmd_platforms() {
    println!("built-in platforms (paper §IV) — export one as a template with");
    println!("`feves export-platform syshk > my_platform.json`, edit it, and");
    println!("pass it anywhere via `--platform-file my_platform.json`:\n");
    for (key, build, _) in session::PLATFORMS {
        let p = build();
        println!(
            "  {key:<7} {} — {} accelerator(s), {} CPU core(s)",
            p.name, p.n_accel, p.n_cores
        );
        for d in &p.devices {
            let mem = d
                .memory_bytes
                .map(|b| format!("{} MiB", b / 1024 / 1024))
                .unwrap_or_else(|| "host".into());
            println!("           - {:<16} [{mem}]", d.name);
        }
    }
}

/// Telemetry for one CLI run: the encoder's named [`SessionScope`] and,
/// with `--live-out`, the writer that snapshots the scope's registry to an
/// atomic live file every `--live-every` ms.
struct Telemetry {
    scope: Option<SessionScope>,
    /// The writer and the snapshot path it writes.
    live: Option<(LiveWriter, PathBuf)>,
}

/// The one place an encoder gets telemetry. With `registry` the encoder
/// records into a new hub session (what `--metrics-out` and `feves stats`
/// read back); `live` adds the snapshot writer, and implies a registry.
/// With neither the encoder keeps its `NoopRecorder`.
fn attach_telemetry(
    enc: &mut FevesEncoder,
    label: &str,
    registry: bool,
    live: Option<LiveConfig>,
) -> Telemetry {
    if !registry && live.is_none() {
        return Telemetry {
            scope: None,
            live: None,
        };
    }
    let scope = feves::obs::hub().session(label);
    let live = live.map(|live| {
        let path = live.path.clone();
        (LiveWriter::start(live), path)
    });
    enc.set_scope(scope.clone());
    Telemetry {
        scope: Some(scope),
        live,
    }
}

impl Telemetry {
    /// The session's aggregated registry.
    fn memory(&self) -> Option<Arc<MemoryRecorder>> {
        self.scope.as_ref().map(|s| s.metrics())
    }

    /// Stop the writer (it writes the final snapshot), then write
    /// `--metrics-out` from the registry.
    fn finish(mut self, metrics_out: &Option<String>) -> CliResult {
        if let Some((mut writer, path)) = self.live.take() {
            writer.stop();
            eprintln!("live snapshot written to {}", path.display());
        }
        if let (Some(rec), Some(path)) = (self.memory(), metrics_out) {
            write_atomic(path, rec.to_jsonl(false))
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            eprintln!("metrics written to {path}");
        }
        Ok(())
    }
}

/// Turn on the flight recorder when `--flight-out` asked for one.
fn enable_flight(enc: &mut FevesEncoder, flight_out: &Option<String>, frames: usize) {
    if flight_out.is_some() {
        enc.enable_flight(frames.max(1));
    }
}

/// Write the flight ring as JSONL to the `--flight-out` path (atomic).
fn write_flight(enc: &FevesEncoder, flight_out: &Option<String>) -> CliResult {
    if let Some(path) = &flight_out {
        let fl = enc
            .flight()
            .ok_or_else(|| CliError::runtime("flight recorder was never enabled".to_string()))?;
        write_atomic(path, fl.to_jsonl()).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        eprintln!(
            "flight log written to {path} ({} record(s), {} dropped)",
            fl.len(),
            fl.dropped()
        );
    }
    Ok(())
}

/// One-line fault-tolerance summary, printed whenever anything fired.
fn print_ft(enc: &FevesEncoder) {
    let ft = enc.ft_stats();
    if ft != FtStats::default() {
        println!(
            "faults: {} injected, {} detected, {} recovered | {} re-solve(s), {} MB row(s) re-dispatched",
            ft.injected, ft.detected, ft.recovered, ft.resolves, ft.redispatched_rows
        );
    }
}

fn print_rollups(report: &EncodeReport) {
    if let (Some(tau), Some(sched)) = (report.tau_tot_rollup(), report.sched_overhead_rollup()) {
        println!(
            "tau_tot        p50 {:>8.2} ms  p95 {:>8.2} ms  p99 {:>8.2} ms",
            tau.p50, tau.p95, tau.p99
        );
        println!(
            "sched overhead p50 {:>8.1} µs  p95 {:>8.1} µs  p99 {:>8.1} µs",
            sched.p50 * 1e3,
            sched.p95 * 1e3,
            sched.p99 * 1e3
        );
    }
}

fn cmd_simulate(opts: &Options) -> CliResult {
    let (platform, cfg) = config_of(opts, Resolution::FULL_HD)?;
    let mut enc = FevesEncoder::new(platform, cfg).map_err(CliError::runtime)?;
    let telemetry = attach_telemetry(
        &mut enc,
        "simulate",
        opts.metrics_out.is_some(),
        opts.live(),
    );
    enable_flight(&mut enc, &opts.flight_out, opts.frames);
    let report = enc.run_timing(opts.frames);
    println!(
        "{} | 1080p | SA {}x{} | {} RF | balancer {}",
        report.platform, opts.sa, opts.sa, opts.refs, opts.balancer
    );
    println!(
        "{:>6} {:>10} {:>8} {:>10} {:>12}",
        "frame", "time[ms]", "fps", "refs", "sched[µs]"
    );
    for f in report.inter_frames() {
        println!(
            "{:>6} {:>10.2} {:>8.1} {:>10} {:>12.1}",
            f.frame,
            f.tau_tot * 1e3,
            f.fps(),
            f.refs_used,
            f.sched_overhead * 1e6
        );
    }
    let skip = (opts.refs + 3).min(opts.frames.saturating_sub(1));
    let fps = report.steady_fps(skip);
    println!(
        "\nsteady state: {:.1} fps — {}",
        fps,
        if fps >= 25.0 {
            "REAL-TIME"
        } else {
            "below real-time"
        }
    );
    print_ft(&enc);
    print_rollups(&report);
    write_flight(&enc, &opts.flight_out)?;
    telemetry.finish(&opts.metrics_out)
}

fn cmd_stats(opts: &Options) -> CliResult {
    let (platform, cfg) = config_of(opts, Resolution::FULL_HD)?;
    let mut enc = FevesEncoder::new(platform, cfg).map_err(CliError::runtime)?;
    let telemetry = attach_telemetry(&mut enc, "stats", true, None);
    let rec = telemetry.memory().expect("asked for a registry");
    enable_flight(&mut enc, &opts.flight_out, opts.frames);
    let report = enc.run_timing(opts.frames);
    println!(
        "{} | 1080p | SA {}x{} | {} RF | balancer {} | {} inter-frames\n",
        report.platform, opts.sa, opts.sa, opts.refs, opts.balancer, opts.frames
    );
    print!("{}", rec.render_stats());
    println!();
    print_ft(&enc);
    print_rollups(&report);
    write_flight(&enc, &opts.flight_out)?;
    telemetry.finish(&opts.metrics_out)
}

fn cmd_trace(opts: &Options) -> CliResult {
    let (platform, mut cfg) = config_of(opts, Resolution::FULL_HD)?;
    cfg.noise_amp = 0.0;
    let mut enc = FevesEncoder::new(platform, cfg).map_err(CliError::runtime)?;
    let telemetry = attach_telemetry(&mut enc, "trace", opts.metrics_out.is_some(), None);
    for _ in 0..opts.refs + 4 {
        enc.encode_inter_timing();
    }
    let report = enc.encode_inter_timing();
    let (fg, sched) = enc
        .last_schedule()
        .ok_or_else(|| CliError::runtime("no schedule recorded for the steady-state frame"))?;
    match &opts.perfetto {
        // The frame as a one-trace span log, through the one exporter.
        Some(path) => {
            let log = feves::core::trace::frame_log(fg, sched, enc.platform());
            write_atomic(path, log.to_perfetto())
                .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            eprintln!("perfetto trace written to {path}");
        }
        None => {
            let gantt = feves::core::trace::render_gantt(fg, sched, enc.platform(), 100);
            println!("{gantt}");
            println!(
                "steady frame: {:.2} ms ({:.1} fps)",
                report.tau_tot * 1e3,
                report.fps()
            );
        }
    }
    telemetry.finish(&opts.metrics_out)
}

/// `feves trace <trace.jsonl>`: analyze a farm's causal-trace log (written
/// by `feves serve --trace-out`) — validate the span DAG, then either print
/// per-job critical-path attribution with what-if projections, or convert
/// the whole log to Perfetto-loadable JSON with `--perfetto <out.json>`.
fn cmd_trace_log(opts: &Options, input: &str) -> CliResult {
    let text =
        std::fs::read_to_string(input).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    if !feves::obs::TraceLog::sniff(&text) {
        return Err(CliError::runtime(format!(
            "{input}: not a causal-trace log (missing feves-trace/1 header); \
             `feves serve --trace-out` writes one"
        )));
    }
    let log = feves::obs::TraceLog::parse_jsonl(&text)
        .map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    feves::obs::validate_dag(&log).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    if let Some(path) = &opts.perfetto {
        write_atomic(path, log.to_perfetto())
            .map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
        eprintln!(
            "perfetto trace written to {path} ({} span(s), {} edge(s))",
            log.spans.len(),
            log.edges.len()
        );
        return Ok(());
    }
    let report = feves::obs::CriticalReport::from_log(&log).map_err(CliError::runtime)?;
    print!("{}", report.render_text(&log));
    Ok(())
}

/// The stdout of `feves encode` / `resume`. Its lines are advisory and the
/// artifact is the product: after the first `BrokenPipe` (the reader left,
/// `… | head -1`) nothing more is printed and the encode carries on to
/// exit 0; any other error also ends the printing and is the command's
/// runtime error once the artifact is complete.
#[derive(Default)]
struct Progress {
    closed: bool,
    error: Option<std::io::Error>,
}

impl Progress {
    fn line(&mut self, line: std::fmt::Arguments<'_>) {
        if self.closed {
            return;
        }
        if let Err(e) = writeln!(std::io::stdout().lock(), "{line}") {
            self.closed = true;
            if e.kind() != std::io::ErrorKind::BrokenPipe {
                self.error = Some(e);
            }
        }
    }

    fn finish(self) -> CliResult {
        match self.error {
            Some(e) => Err(CliError::runtime(format!("stdout: {e}"))),
            None => Ok(()),
        }
    }
}

/// The CLI's side of the session driver's frame loop: signals stop it,
/// `FEVES_CRASH_AT=frame@n` kills it, and progress is printed as it goes.
struct CliHooks {
    out: Progress,
    /// Checkpoint-writer metrics join the session's when it has any.
    rec: Option<Arc<MemoryRecorder>>,
    /// Running totals for the summary line, accumulated in frame order:
    /// frames, coded bits, and the sum and count of the finite PSNRs.
    frames: usize,
    bits: u64,
    psnr: (f64, usize),
}

impl SessionHooks for CliHooks {
    fn stop_requested(&self) -> bool {
        feves::serve::signal::shutdown_requested()
    }

    fn before_frame(&mut self, i: usize) {
        crash_point_at("frame", i as u64);
    }

    fn on_frame(&mut self, rep: feves::core::FrameReport) {
        self.out.line(format_args!(
            "frame {:>4} ({}) {:>9} bits  PSNR-Y {:>6.2} dB  sim {:>7.2} ms",
            rep.frame,
            if rep.is_intra { "I" } else { "P" },
            rep.bits.unwrap_or(0),
            rep.psnr_y.unwrap_or(f64::NAN),
            rep.tau_tot * 1e3
        ));
        self.frames += 1;
        self.bits += rep.bits.unwrap_or(0);
        if let Some(p) = rep.psnr_y.filter(|p| p.is_finite()) {
            self.psnr = (self.psnr.0 + p, self.psnr.1 + 1);
        }
    }

    fn on_commit(&mut self, c: &Commit) {
        if c.stopping {
            eprintln!(
                "interrupted: checkpoint committed at frame {}",
                c.frames_done
            );
        } else {
            eprintln!("checkpoint {} (frame {})", c.path.display(), c.frames_done);
        }
    }

    fn recorder(&self) -> &dyn Recorder {
        match &self.rec {
            Some(r) => r.as_ref(),
            None => &NoopRecorder,
        }
    }
}

/// Run an opened session to its end, or to the checkpoint a signal
/// forces, printing progress as it goes; a completed session then gets its
/// summary line and flight log. When interrupted, the checkpoint is the
/// committed state and the unfinished output tail past it is `feves
/// resume`'s to truncate.
fn run_session(
    session: Session,
    out: Progress,
    rec: Option<Arc<MemoryRecorder>>,
    resumed_at: Option<usize>,
) -> CliResult {
    let mut hooks = CliHooks {
        out,
        rec,
        frames: 0,
        bits: 0,
        psnr: (0.0, 0),
    };
    let done = session.run(&mut hooks).map_err(CliError::runtime)?;
    if done.interrupted {
        return hooks.out.finish();
    }
    let ctx = &done.context;
    if let Some(start) = resumed_at {
        hooks.out.line(format_args!(
            "\nresumed at frame {start}; encoded {} more frame(s) into {}",
            hooks.frames, ctx.output
        ));
    }
    let (psnr_sum, psnr_frames) = hooks.psnr;
    hooks.out.line(format_args!(
        "\nwrote {} — {} bits total, mean PSNR-Y {:.2} dB",
        ctx.output,
        hooks.bits,
        if psnr_frames > 0 {
            psnr_sum / psnr_frames as f64
        } else {
            f64::NAN
        }
    ));
    write_flight(&done.encoder, &ctx.flight_out)?;
    hooks.out.finish()
}

fn cmd_encode(opts: &Options, input: &str, output: Option<&str>) -> CliResult {
    feves::serve::signal::install_handlers();
    let seq = session::open_input(input, 0).map_err(CliError::runtime)?;
    let Y4mScan {
        header, n_frames, ..
    } = seq.file.scan();
    let mut out = Progress::default();
    out.line(format_args!(
        "{input}: {}x{}, {n_frames} frames",
        header.resolution.width, header.resolution.height,
    ));
    let out_path = output
        .map(str::to_string)
        .unwrap_or_else(|| format!("{input}.recon.y4m"));
    let ckpt_dir = (opts.checkpoint_every > 0).then(|| {
        PathBuf::from(
            opts.checkpoint_dir
                .clone()
                .unwrap_or_else(|| format!("{out_path}.ckpt")),
        )
    });
    let ctx = opts.job_context(input, &out_path)?;
    let mut session = Session::open(ctx, seq, None, ckpt_dir, |_| {})?;
    let enc = session.encoder_mut();
    let telemetry = attach_telemetry(enc, "encode", opts.metrics_out.is_some(), opts.live());
    enable_flight(enc, &opts.flight_out, n_frames);
    run_session(session, out, telemetry.memory(), None)?;
    telemetry.finish(&opts.metrics_out)
}

fn cmd_resume(path: &str) -> CliResult {
    feves::serve::signal::install_handlers();
    // Accept either a checkpoint file or a checkpoint directory (newest
    // usable generation wins; corrupted generations are skipped with a
    // warning each).
    let p = PathBuf::from(path);
    let (ckpt_path, ctx, state) = if p.is_dir() {
        let (ckpt_path, ctx, state, warnings) =
            feves::core::load_latest(&p).map_err(CliError::runtime)?;
        for w in warnings {
            eprintln!("warning: {w}");
        }
        (ckpt_path, ctx, state)
    } else {
        let (ctx, state) = feves::core::load_checkpoint_file(&p).map_err(CliError::runtime)?;
        (p, ctx, state)
    };
    eprintln!(
        "resuming from {} — frame {}/{} of {}",
        ckpt_path.display(),
        ctx.frames_done,
        ctx.n_frames,
        ctx.input
    );

    // A checkpoint that no longer matches the input or the output on disk
    // is refused, never silently re-encoded over.
    let seq = session::open_input(&ctx.input, ctx.frames_done).map_err(CliError::runtime)?;
    let resume = session::validate_checkpoint(&ctx, &seq)
        .map_err(CliError::runtime)?
        .map(|prefix_crc_state| (state, prefix_crc_state));
    let ckpt_dir = ckpt_path
        .parent()
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from("."));
    let (start, n_frames) = (ctx.frames_done, ctx.n_frames);
    let (flight_out, metrics_out) = (ctx.flight_out.clone(), ctx.metrics_out.clone());
    let mut session =
        Session::open(ctx, seq, resume, Some(ckpt_dir), |_| {}).map_err(CliError::runtime)?;

    // Re-arm the session-level extras the checkpoint deliberately excludes.
    let enc = session.encoder_mut();
    let telemetry = attach_telemetry(enc, "resume", metrics_out.is_some(), None);
    enable_flight(enc, &flight_out, n_frames);
    if let Some(fl) = enc.flight_mut() {
        fl.mark_resume(start);
    }
    run_session(
        session,
        Progress::default(),
        telemetry.memory(),
        Some(start),
    )?;
    telemetry.finish(&metrics_out)
}

/// `feves stats <live.json>`: render a live snapshot as the familiar
/// metrics table instead of running a fresh simulation.
fn cmd_stats_live(input: &str) -> CliResult {
    let text =
        std::fs::read_to_string(input).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    let snap =
        LiveSnapshot::parse(&text).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    print!("{}", snap.render_stats());
    Ok(())
}

/// `feves top <live.json>`: refreshing terminal dashboard over a running
/// encode's live snapshot file. `--once` renders a single frame (for
/// scripts and CI); otherwise redraws every `--interval` ms until killed.
fn cmd_top(opts: &Options, input: &str) -> CliResult {
    loop {
        // A snapshot that does not exist yet and one the OS refuses to read
        // are different operator situations: "no snapshot yet" means the
        // producer has not published (start it, or check --live-out); any
        // other error carries the OS's reason verbatim.
        let text = match std::fs::read_to_string(input) {
            Ok(t) => t,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                return Err(CliError::runtime(format!(
                    "{input}: no snapshot yet — is the producer running with --live-out?"
                )))
            }
            Err(e) => return Err(CliError::runtime(format!("{input}: {e}"))),
        };
        let snap =
            LiveSnapshot::parse(&text).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
        if opts.once {
            // Scripted checks must not mistake a dead producer for a live
            // one: a snapshot older than two publish periods means nobody
            // is writing it. `--allow-stale` opts out (post-mortem reads).
            if !opts.allow_stale {
                let limit = std::time::Duration::from_millis(opts.live_every_ms.saturating_mul(2));
                let age = std::fs::metadata(input)
                    .and_then(|m| m.modified())
                    .map_err(|e| CliError::runtime(format!("{input}: {e}")))?
                    .elapsed()
                    // A clock skewed into the future reads as fresh.
                    .unwrap_or_default();
                if age > limit {
                    return Err(CliError::runtime(format!(
                        "{input}: snapshot is stale ({}ms old > {}ms limit); \
                         the producer is gone — pass --allow-stale to render anyway",
                        age.as_millis(),
                        limit.as_millis()
                    )));
                }
            }
            print!("{}", snap.render_top());
            return Ok(());
        }
        // Clear + home, then one dashboard frame. The snapshot file is
        // written atomically, so a mid-write read can never tear.
        print!("\x1b[2J\x1b[H{}", snap.render_top());
        use std::io::Write;
        std::io::stdout().flush().ok();
        std::thread::sleep(std::time::Duration::from_millis(opts.interval_ms));
    }
}

/// Verify one durable file, sniffed by content: a checkpoint (magic
/// `FEVESCKP`, full binary decode), a Y4M artifact (container parse), or a
/// framed JSON control file (checksum trailer + schema). Returns a
/// human-readable description of what verified.
fn verify_file(p: &std::path::Path) -> CliResult<String> {
    use std::io::{Read, Seek};
    let name = p.display();
    let io_err = |e: std::io::Error| CliError::runtime(format!("{name}: {e}"));
    // An artifact can be any size: sniffed by its magic and then walked in
    // a bounded buffer. Everything else is a few KB and read whole.
    let mut magic = Vec::new();
    let mut file = std::fs::File::open(p).map_err(io_err)?;
    (&mut file)
        .take(9)
        .read_to_end(&mut magic)
        .map_err(io_err)?;
    if magic == b"YUV4MPEG2" {
        let mut crc = CRC32_INIT;
        file.rewind().map_err(io_err)?;
        let whole = std::io::BufReader::new(file);
        let scan = y4m::scan(whole, 0, |bytes| crc = crc32_update(crc, bytes))
            .map_err(|e| CliError::runtime(format!("{name}: corrupt container: {e}")))?;
        return Ok(format!(
            "y4m artifact, {} frame(s), crc32 {:08x}",
            scan.n_frames, !crc
        ));
    }
    drop(file);
    let bytes = std::fs::read(p).map_err(io_err)?;
    if bytes.len() >= 8 && bytes[..8] == CKPT_MAGIC {
        let (ctx, _state) = feves::core::load_checkpoint_file(p)
            .map_err(|e| CliError::runtime(format!("{name}: {e}")))?;
        return Ok(format!(
            "checkpoint, frame {}/{}, output crc32 {:08x}",
            ctx.frames_done, ctx.n_frames, ctx.out_crc
        ));
    }
    let text = String::from_utf8(bytes)
        .map_err(|_| CliError::runtime(format!("{name}: unrecognized binary file")))?;
    if !text.trim_start().starts_with('{') {
        return Err(CliError::runtime(format!("{name}: unrecognized file type")));
    }
    let framed = text
        .trim_end()
        .lines()
        .next_back()
        .is_some_and(|l| l.starts_with("#crc32="));
    let what = feves::serve::job::verify_control(&text)
        .map_err(|e| CliError::runtime(format!("{name}: {e}")))?;
    Ok(if framed {
        format!("{what}, checksum ok")
    } else {
        format!("legacy {what}, no checksum")
    })
}

/// `feves verify <artifact|ckpt|spool>`: validate the checksums and
/// container structure of everything the framework persists. A directory
/// is walked (checkpoint generations, spool specs, done records); every
/// corrupt file is reported as a typed `error:` line and the exit is 1.
fn cmd_verify(path: &str) -> CliResult {
    let p = std::path::Path::new(path);
    if p.is_file() {
        let what = verify_file(p)?;
        println!("{path}: ok ({what})");
        return Ok(());
    }
    if !p.is_dir() {
        return Err(CliError::runtime(format!(
            "{path}: no such file or directory"
        )));
    }
    // A checkpoint dir and a spool both verify the same way: every
    // checkpoint generation and control file inside must check out.
    // Quarantined files are skipped — they are already known corrupt.
    let mut targets: Vec<PathBuf> = Vec::new();
    let list = |dir: &std::path::Path, targets: &mut Vec<PathBuf>| -> CliResult {
        for entry in
            std::fs::read_dir(dir).map_err(|e| CliError::runtime(format!("{path}: {e}")))?
        {
            let entry = entry.map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            let f = entry.path();
            let name = entry.file_name().to_string_lossy().into_owned();
            let known = name.ends_with(".ckpt") || name.ends_with(".json");
            if f.is_file() && known && !name.starts_with('.') {
                targets.push(f);
            }
        }
        Ok(())
    };
    list(p, &mut targets)?;
    let done = feves::serve::job::done_dir(p);
    if done.is_dir() {
        list(&done, &mut targets)?;
    }
    targets.sort();
    let mut failures = 0usize;
    for t in &targets {
        match verify_file(t) {
            Ok(what) => println!("{}: ok ({what})", t.display()),
            Err(CliError::Runtime(m)) | Err(CliError::Usage(m)) => {
                eprintln!("error: {m}");
                failures += 1;
            }
        }
    }
    if failures > 0 {
        return Err(CliError::runtime(format!(
            "{path}: {failures} of {} file(s) failed verification",
            targets.len()
        )));
    }
    if targets.is_empty() {
        return Err(CliError::runtime(format!("{path}: nothing to verify")));
    }
    println!("{path}: ok ({} file(s) verified)", targets.len());
    Ok(())
}

/// `feves serve <spool>`: run the supervised encode farm until drained
/// (SIGTERM/SIGINT or `feves drain`) or, with `--exit-when-idle`, until
/// the spool runs dry.
fn cmd_serve(opts: &Options, spool: &str) -> CliResult {
    let cfg = feves::serve::FarmConfig {
        spool: PathBuf::from(spool),
        platform: opts.platform.clone(),
        queue_cap: opts.queue_cap,
        high_watermark: opts.high_watermark.unwrap_or(opts.queue_cap),
        max_inflight: opts.max_inflight,
        retry_budget: opts.retry_budget,
        poll_ms: opts.poll_ms,
        checkpoint_every: if opts.checkpoint_every > 0 {
            opts.checkpoint_every
        } else {
            feves::serve::DEFAULT_CHECKPOINT_EVERY
        },
        exit_when_idle: opts.exit_when_idle,
        live_out: opts.live_out.clone().map(PathBuf::from),
        live_every_ms: opts.live_every_ms,
        trace_out: opts.trace_out.clone().map(PathBuf::from),
        disk_low_bytes: opts.disk_low_mb.saturating_mul(1024 * 1024),
        ..feves::serve::FarmConfig::default()
    };
    eprintln!(
        "serving {spool} — platform {}, queue {} (reject at {}), {} in flight, retry budget {}",
        cfg.platform, cfg.queue_cap, cfg.high_watermark, cfg.max_inflight, cfg.retry_budget
    );
    let report = feves::serve::farm::run(cfg).map_err(CliError::runtime)?;
    println!(
        "farm: {} completed, {} failed, {} rejected, {} retried, {} checkpointed ({})",
        report.completed,
        report.failed,
        report.rejected,
        report.retried,
        report.checkpointed,
        if report.drained { "drained" } else { "idle" }
    );
    Ok(())
}

/// `feves submit <spool> <in.y4m> [out]`: atomically drop a job spec into
/// a farm's spool directory.
fn cmd_submit(opts: &Options, spool: &str, input: &str, output: Option<&str>) -> CliResult {
    let output = output
        .map(str::to_string)
        .unwrap_or_else(|| format!("{input}.recon.y4m"));
    let id = opts.id.clone().unwrap_or_else(|| {
        // Deterministic id from the job's identity, so re-submitting the
        // same work overwrites rather than duplicates.
        format!(
            "job-{:016x}",
            fnv1a64(format!("{input}->{output}").as_bytes())
        )
    });
    let job = feves::serve::JobSpec {
        id,
        input: input.to_string(),
        output,
        platform: opts.platform.clone(),
        sa: opts.sa,
        refs: opts.refs,
        qp: opts.qp,
        balancer: opts.balancer.clone(),
        faults: opts.faults.clone(),
        checkpoint_every: opts.checkpoint_every,
        chaos_kill_at: opts.chaos_kill_at,
        chaos_device: opts.chaos_device,
        pipeline: opts.pipeline,
        trace: !opts.no_trace,
    };
    let path = feves::serve::job::write_job(std::path::Path::new(spool), &job)
        .map_err(CliError::runtime)?;
    println!("submitted {} ({})", job.id, path.display());
    Ok(())
}

/// `feves drain <spool>`: ask the daemon serving this spool to stop
/// admitting, checkpoint in-flight jobs, and exit.
fn cmd_drain(spool: &str) -> CliResult {
    let spool = std::path::Path::new(spool);
    std::fs::create_dir_all(feves::serve::job::ctl_dir(spool))
        .map_err(|e| CliError::runtime(format!("{}: {e}", spool.display())))?;
    let marker = feves::serve::job::drain_marker(spool);
    write_atomic(&marker, "drain\n")
        .map_err(|e| CliError::runtime(format!("{}: {e}", marker.display())))?;
    println!("drain requested ({})", marker.display());
    Ok(())
}

/// True when `text` looks like a live snapshot document rather than a
/// flight-recorder JSONL.
fn is_live_snapshot(text: &str) -> bool {
    text.trim_start().starts_with('{') && text.contains("\"feves-live/")
}

fn cmd_report(opts: &Options, input: &str) -> CliResult {
    let text =
        std::fs::read_to_string(input).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
    // The same tooling works mid-run: pointed at a live snapshot instead of
    // a flight log, `report` summarizes the in-progress session.
    if is_live_snapshot(&text) {
        if opts.html {
            return Err(CliError::usage(
                "--html reports need a flight log; live snapshots render as text only",
            ));
        }
        let snap =
            LiveSnapshot::parse(&text).map_err(|e| CliError::runtime(format!("{input}: {e}")))?;
        let body = snap.render_summary();
        match &opts.out {
            Some(path) => {
                write_atomic(path, &body).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
                eprintln!("report written to {path}");
            }
            None => print!("{body}"),
        }
        return Ok(());
    }
    let records = parse_flight_jsonl(&text).map_err(CliError::runtime)?;
    // Display parameters match the framework defaults: the drift band for
    // the residual chart, a gentle EWMA for the per-device trend column.
    let band = DriftConfig::default().band_pct;
    let body = if opts.html {
        render_html(&records, 0.2, band)
    } else {
        AuditSummary::from_records(&records, 0.2).render_text()
    };
    match &opts.out {
        Some(path) => {
            write_atomic(path, &body).map_err(|e| CliError::runtime(format!("{path}: {e}")))?;
            eprintln!("report written to {path}");
        }
        None => print!("{body}"),
    }
    Ok(())
}

/// Returns whether the comparison passed (the caller maps `false` to a
/// non-zero exit without printing usage — a regression is not a CLI error).
fn cmd_compare(opts: &Options, baseline: &str, candidate: &str) -> CliResult<bool> {
    let base = std::fs::read_to_string(baseline)
        .map_err(|e| CliError::runtime(format!("{baseline}: {e}")))?;
    let cand = std::fs::read_to_string(candidate)
        .map_err(|e| CliError::runtime(format!("{candidate}: {e}")))?;
    let outcome = match &opts.metric {
        Some(filter) => compare_reports_metric(&base, &cand, opts.threshold, filter),
        None => compare_reports(&base, &cand, opts.threshold),
    }
    .map_err(CliError::runtime)?;
    print!("{}", outcome.render_text(opts.threshold));
    Ok(outcome.passed())
}

const USAGE: &str = "usage: feves <command> [options]\n\n\
         commands:\n\
         \u{20}  platforms                       list built-in platforms\n\
         \u{20}  export-platform [name]          dump a platform as JSON\n\
         \u{20}  simulate [options]              timing-only 1080p run\n\
         \u{20}  encode <in.y4m> [out] [options] functional Y4M encode\n\
         \u{20}  resume <ckpt|dir>               continue a crashed encode session\n\
         \u{20}  verify <artifact|ckpt|spool>    validate checksums + container structure\n\
         \u{20}  trace [options|trace.jsonl]     steady-state frame Gantt, or\n\
         \u{20}                                  critical-path analysis of a farm\n\
         \u{20}                                  causal-trace log (serve --trace-out)\n\
         \u{20}  stats [options|live.json]       run + print the metrics summary,\n\
         \u{20}                                  or tabulate a live snapshot\n\
         \u{20}  serve <spool> [options]         supervised encode-farm daemon\n\
         \u{20}  submit <spool> <in.y4m> [out]   drop an encode job into a spool\n\
         \u{20}  drain <spool>                   ask the daemon to drain and exit\n\
         \u{20}  top <live.json> [--once] [--interval <ms>]  live dashboard\n\
         \u{20}  report <flight.jsonl|live.json> [--html] [--out <path>]  audit a\n\
         \u{20}                                  flight log or a live snapshot\n\
         \u{20}  compare <baseline> <new> [--threshold <f>] [--metric <filter>]  regression gate\n\n\
         options: --platform <name> | --platform-file <json>\n\
         \u{20}        --sa <n> --refs <n> --qp <n>     search area (power of two, 8..512),\n\
         \u{20}                                        reference frames (1..16), QP (0..51)\n\
         \u{20}        --frames <n> --balancer feves|proportional|equidistant\n\
         \u{20}        --metrics-out <path>            JSONL metrics dump\n\
         \u{20}        --flight-out <path>             JSONL flight-recorder dump\n\
         \u{20}        --inject-fault <dev>:<kind>@<frame>  inject a device fault\n\
         \u{20}            kinds: death@f | stall@f+k | slow@f+kxF | xfer@f | panic@f\n\
         \u{20}        --deadline-factor <f>           fault-detection slack (>1, default 3)\n\
         \u{20}        --kernels fast                  accepted and ignored: one kernel family\n\
         \u{20}        --perfetto <out.json>           trace: write Perfetto-loadable JSON instead\n\
         \u{20}        --checkpoint-every <k>          encode: durable checkpoint every k frames\n\
         \u{20}        --checkpoint-dir <dir>          checkpoint directory (default <out>.ckpt)\n\
         \u{20}        --checkpoint-keep <n>           generations to retain (default 2)\n\
         \u{20}        --live-out <path>               stream atomic live snapshots (feves top)\n\
         \u{20}        --live-every <ms>               live snapshot period (default 250)\n\
         \u{20}        --interval <ms>                 top: refresh period (default 1000)\n\
         \u{20}        --once                          top: render one frame and exit\n\
         \u{20}        --allow-stale                   top --once: render even a stale snapshot\n\
         \u{20}        --queue-cap <n>                 serve: admission queue bound (default 64)\n\
         \u{20}        --high-watermark <n>            serve: reject line (default queue cap)\n\
         \u{20}        --max-inflight <n>              serve: concurrent sessions (default 2)\n\
         \u{20}        --retry-budget <n>              serve: retries per job (default 2)\n\
         \u{20}        --poll-ms <ms>                  serve: spool poll period (default 50)\n\
         \u{20}        --exit-when-idle                serve: exit when the spool runs dry\n\
         \u{20}        --disk-low-mb <n>               serve: free-space low watermark; below\n\
         \u{20}                                        it admission pauses and cadence\n\
         \u{20}                                        checkpoints shed (0 = off)\n\
         \u{20}        --trace-out <path>              serve: farm-wide causal-trace JSONL\n\
         \u{20}                                        (analyze with `feves trace <path>`)\n\
         \u{20}        --no-trace                      submit: opt this job out of tracing\n\
         \u{20}        --id <name>                     submit: explicit job id\n\
         \u{20}        --chaos-kill-at <frame>         submit: panic the session there (attempt 0)\n\
         \u{20}        --chaos-device <dev>            submit: device a chaos kill is blamed on\n\
         \u{20}        --pipeline on|off               overlap inter-frame phases across devices\n\
         \u{20}                                        (scheduling only; output bytes identical)\n\
         \u{20}        --metric <filter>               compare: gate only metrics matching the\n\
         \u{20}                                        comma-separated filter list, e.g.\n\
         \u{20}                                        idle_pct,critical_path_us";

fn usage() {
    eprintln!("{USAGE}");
}

fn parse_cli(args: &[String]) -> Result<(Options, Vec<String>), CliError> {
    parse_options(args).map_err(CliError::Usage)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = args.first().cloned() else {
        usage();
        return ExitCode::from(2);
    };
    let rest = &args[1..];
    let result: CliResult = match cmd.as_str() {
        "platforms" => {
            cmd_platforms();
            Ok(())
        }
        "export-platform" => {
            let name = rest.first().map(String::as_str).unwrap_or("syshk");
            session::platform_of(&name.to_lowercase())
                .map(|(p, _)| println!("{}", p.to_json()))
                .map_err(CliError::from)
        }
        "simulate" => parse_cli(rest).and_then(|(o, _)| cmd_simulate(&o)),
        "trace" => parse_cli(rest).and_then(|(o, pos)| match pos.first() {
            // With a positional file, analyze that causal-trace log instead
            // of simulating a steady-state frame.
            Some(path) => cmd_trace_log(&o, path),
            None => cmd_trace(&o),
        }),
        "stats" => parse_cli(rest).and_then(|(o, pos)| match pos.first() {
            // With a positional file, render that live snapshot instead of
            // running a fresh simulation.
            Some(path) => cmd_stats_live(path),
            None => cmd_stats(&o),
        }),
        "top" => parse_cli(rest).and_then(|(o, pos)| {
            let input = pos
                .first()
                .ok_or_else(|| CliError::usage("top needs a live snapshot file (--live-out)"))?;
            cmd_top(&o, input)
        }),
        "encode" => parse_cli(rest).and_then(|(o, pos)| {
            let input = pos
                .first()
                .ok_or_else(|| CliError::usage("encode needs an input .y4m"))?;
            cmd_encode(&o, input, pos.get(1).map(String::as_str))
        }),
        "serve" => parse_cli(rest).and_then(|(o, pos)| {
            let spool = pos
                .first()
                .ok_or_else(|| CliError::usage("serve needs a spool directory"))?;
            cmd_serve(&o, spool)
        }),
        "submit" => parse_cli(rest).and_then(|(o, pos)| {
            let (Some(spool), Some(input)) = (pos.first(), pos.get(1)) else {
                return Err(CliError::usage("submit needs <spool> <in.y4m> [out]"));
            };
            cmd_submit(&o, spool, input, pos.get(2).map(String::as_str))
        }),
        "drain" => parse_cli(rest).and_then(|(_, pos)| {
            let spool = pos
                .first()
                .ok_or_else(|| CliError::usage("drain needs a spool directory"))?;
            cmd_drain(spool)
        }),
        "resume" => parse_cli(rest).and_then(|(_, pos)| {
            let path = pos
                .first()
                .ok_or_else(|| CliError::usage("resume needs a checkpoint file or directory"))?;
            cmd_resume(path)
        }),
        "verify" => parse_cli(rest).and_then(|(_, pos)| {
            let path = pos.first().ok_or_else(|| {
                CliError::usage("verify needs an artifact, checkpoint, spool file or directory")
            })?;
            cmd_verify(path)
        }),
        "report" => parse_cli(rest).and_then(|(o, pos)| {
            let input = pos
                .first()
                .ok_or_else(|| CliError::usage("report needs a flight JSONL file"))?;
            cmd_report(&o, input)
        }),
        "compare" => {
            match parse_cli(rest).and_then(|(o, pos)| {
                let (Some(base), Some(cand)) = (pos.first(), pos.get(1)) else {
                    return Err(CliError::usage("compare needs <baseline> <candidate>"));
                };
                cmd_compare(&o, base, cand)
            }) {
                // A regression is a gate failure, not a CLI error: exit
                // non-zero without the usage banner.
                Ok(passed) => {
                    return if passed {
                        ExitCode::SUCCESS
                    } else {
                        ExitCode::from(1)
                    }
                }
                Err(e) => Err(e),
            }
        }
        "--help" | "-h" | "help" => {
            usage();
            Ok(())
        }
        other => Err(CliError::Usage(format!("unknown command '{other}'"))),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(CliError::Usage(e)) => {
            eprintln!("error: {e}");
            usage();
            ExitCode::from(2)
        }
        Err(CliError::Runtime(e)) => {
            eprintln!("error: {e}");
            ExitCode::from(1)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    /// Every `--flag` token in `text`.
    fn flags(text: &str) -> BTreeSet<String> {
        text.split(|c: char| !(c.is_ascii_lowercase() || c == '-'))
            .filter(|t| t.len() > 2 && t.starts_with("--"))
            .map(str::to_string)
            .collect()
    }

    #[test]
    fn usage_lists_exactly_the_flags_parse_options_takes() {
        // The arms of `parse_options`, read off this file: lines that open
        // with a quoted flag and go straight to `=>`.
        let arms: BTreeSet<String> = include_str!("feves.rs")
            .lines()
            .filter_map(|l| l.trim_start().strip_prefix('"')?.split_once("\" =>"))
            .filter(|(flag, _)| !flag.contains('"'))
            .flat_map(|(flag, _)| flags(flag))
            .collect();
        assert!(arms.len() > 30, "the scan found the parser: {arms:?}");
        let listed = flags(USAGE);
        let unlisted: Vec<_> = arms.difference(&listed).collect();
        assert!(
            unlisted.is_empty(),
            "parsed but not in --help: {unlisted:?}"
        );
        for flag in &listed {
            if let Err(e) = parse_options(&[flag.clone(), "1".into()]) {
                assert!(!e.starts_with("unknown option"), "in --help only: {e}");
            }
        }
    }
}
