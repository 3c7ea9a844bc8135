//! The untraced run: end-to-end metrics, measured from outside the child
//! process and reported at a nominal host's pace (see `calib`), and the
//! correctness checks on every artifact.

use crate::calib::{Heartbeat, Pulse, Span};
use crate::child;
use crate::cli::{
    check_artifact, ckpt_dir, digest_encode, encode_cmd, fingerprint, verify, Encoded, Fingerprint,
    Ops,
};
use crate::farm::{completion_times, run_batch, run_paced, Daemon, Job};
use crate::gen::{arrival_schedule, write_clip, SplitMix64};
use crate::spec::{Kind, Workload};
use crate::stats::{median, median_by, window_rates};
use crate::{fresh_dir, Ctx, Outcome};
use std::io::Read;
use std::path::{Path, PathBuf};
use std::time::Instant;

/// Frames of the warm-up clip: the head of the first input.
const WARM_FRAMES: usize = 3;
/// The share of a farm run's length that closed batches may take.
const BATCH_SHARE: f64 = 0.4;
/// Set-ups per run, `setup_s` being their median: at least five, and while
/// they are cheap (under `SETUP_BUDGET_S` in all) up to fifteen, because a
/// set-up of a tenth of a second is at the mercy of one scheduling hiccup.
const MIN_SETUPS: usize = 5;
const MAX_SETUPS: usize = 15;
const SETUP_BUDGET_S: f64 = 3.0;

pub fn run(ctx: &Ctx, w: &Workload) -> std::io::Result<Outcome> {
    match w.kind {
        Kind::Encode => run_encode(ctx, w),
        Kind::Farm => run_farm(ctx, w),
    }
}

/// The inputs of one workload, on disk. The benchmark keeps no clip in its
/// own memory while it measures: a child's `ru_maxrss` starts from its
/// parent's peak, so a fat parent would hide the child's.
pub struct Inputs {
    pub paths: Vec<PathBuf>,
    /// The warm-up's artifact: the encode of the first input's head.
    pub warm_out: PathBuf,
}

/// Generate the workload's clips (fixed scenes under the seed's sensor
/// noise), and run one warm-up encode of the first clip's head so the binary
/// and its pages are resident. This is what `setup_s` times.
pub fn set_up(ctx: &Ctx, w: &Workload, dir: &Path, ops: &mut Ops) -> std::io::Result<Inputs> {
    let mut seeds = SplitMix64(ctx.seed);
    let mut inputs = Inputs {
        paths: Vec::new(),
        warm_out: dir.join("warm.out.y4m"),
    };
    let warm_in = dir.join("warm.y4m");
    let warm_frames = WARM_FRAMES.min(w.frames);
    for i in 0..w.inputs {
        let path = dir.join(format!("in{i}.y4m"));
        let head = (i == 0).then_some((warm_in.as_path(), warm_frames));
        write_clip(&path, w.res, i, seeds.next_u64(), w.frames, head)?;
        inputs.paths.push(path);
    }
    let _ = std::fs::remove_dir_all(ckpt_dir(&inputs.warm_out));
    let mut cmd = encode_cmd(
        &ctx.feves,
        w,
        &warm_in,
        &inputs.warm_out,
        w.checkpoint_every,
    );
    let mut problems = Vec::new();
    digest_encode(
        child::run(&mut cmd)?,
        w.res,
        warm_frames,
        0,
        true,
        &mut problems,
    );
    ops.record("warm-up encode", &problems);
    Ok(inputs)
}

/// Something timed, and when on the heartbeat's clock.
struct Timed<T> {
    what: T,
    span: Span,
}

/// Run `f`, which times a child, beside the heartbeat.
fn timed<T>(
    heart: &Heartbeat,
    f: impl FnOnce() -> std::io::Result<T>,
) -> std::io::Result<Timed<T>> {
    let (what, span) = heart.time(f);
    Ok(Timed { what: what?, span })
}

/// How much the host slowed what ran during a span: the heartbeat's answer,
/// or 1 for the numbers as the clock read them.
type Slowdown<'a> = &'a dyn Fn(Span) -> f64;

/// The median of `f(what, slowdown during it)` over `items`.
fn median_at<T>(items: &[Timed<T>], slow: Slowdown, f: impl Fn(&T, f64) -> f64) -> f64 {
    let values: Vec<f64> = items.iter().map(|t| f(&t.what, slow(t.span))).collect();
    median(&values)
}

/// The run's metrics twice over: at the nominal host's pace, which is what
/// is reported, and as the clock read them.
fn outcome(
    pulse: &Pulse,
    ops: Ops,
    spans: &[Span],
    figure: impl Fn(Slowdown) -> Vec<(&'static str, f64)>,
) -> Outcome {
    let slow: Vec<f64> = spans.iter().map(|s| pulse.slowdown(*s)).collect();
    let (floor_s, units) = pulse.floor();
    eprintln!(
        "  host slowdown during the {} timed children: median {:.3}, {:.3} to {:.3} of the nominal host; each one's times are divided by its own (reference kernel: {:.1} us a unit at best, {units} units)",
        slow.len(),
        median(&slow),
        slow.iter().copied().fold(f64::INFINITY, f64::min),
        slow.iter().copied().fold(0.0, f64::max),
        floor_s * 1e6,
    );
    Outcome {
        ops,
        metrics: figure(&|s| pulse.slowdown(s)),
        by_the_clock: figure(&|_| 1.0),
    }
}

/// The workload's inputs, and the seconds each of the run's set-ups took.
fn timed_set_ups(
    ctx: &Ctx,
    w: &Workload,
    dir: &Path,
    ops: &mut Ops,
    heart: &Heartbeat,
) -> std::io::Result<(Inputs, Vec<Timed<f64>>)> {
    let mut times: Vec<Timed<f64>> = Vec::new();
    loop {
        let mut inputs = None;
        times.push(timed(heart, || {
            let t = Instant::now();
            inputs = Some(set_up(ctx, w, dir, ops)?);
            Ok(t.elapsed().as_secs_f64())
        })?);
        let total: f64 = times.iter().map(|t| t.what).sum();
        let cheap = times.len() < MAX_SETUPS && total < SETUP_BUDGET_S;
        if let (Some(inputs), true) = (inputs, times.len() >= MIN_SETUPS && !cheap) {
            return Ok((inputs, times));
        }
    }
}

/// One standalone encode of `input` into `output`, digested.
pub fn encode_once(
    ctx: &Ctx,
    w: &Workload,
    input: &Path,
    output: &Path,
    problems: &mut Vec<String>,
) -> std::io::Result<Encoded> {
    let _ = std::fs::remove_dir_all(ckpt_dir(output));
    let mut cmd = encode_cmd(&ctx.feves, w, input, output, w.checkpoint_every);
    let run = child::run(&mut cmd)?;
    Ok(digest_encode(run, w.res, w.frames, 0, true, problems))
}

/// The exact metrics every workload takes from a set of standalone encodes.
fn rate_and_quality<'a>(
    encodes: impl Iterator<Item = &'a Encoded>,
    frames: usize,
    out: &mut Vec<(&'static str, f64)>,
) {
    let encodes: Vec<&Encoded> = encodes.collect();
    let kbits = |e: &&Encoded| e.total_bits() as f64 / frames as f64 / 1e3;
    out.push(("kbits_per_frame", median_by(&encodes, kbits)));
    out.push(("psnr_y_db", median_by(&encodes, |e| e.mean_psnr_y())));
}

fn run_encode(ctx: &Ctx, w: &Workload) -> std::io::Result<Outcome> {
    let dir = ctx.fresh_dir(w.name)?;
    let mut ops = Ops::default();
    let heart = Heartbeat::start();
    let (inputs, set_ups) = timed_set_ups(ctx, w, &dir, &mut ops, &heart)?;
    let input = &inputs.paths[0];

    // Closed loop, one client: reps back to back for as long as another one
    // is expected to fit the run length. Checks come after, off the clock.
    let mut reps: Vec<Timed<Encoded>> = Vec::new();
    let mut checks: Vec<(PathBuf, Vec<String>)> = Vec::new();
    let start = Instant::now();
    loop {
        let output = dir.join(format!("out{}.y4m", reps.len()));
        let mut problems = Vec::new();
        let rep = timed(&heart, || {
            encode_once(ctx, w, input, &output, &mut problems)
        })?;
        let took = rep.what.usage.wall_s;
        reps.push(rep);
        checks.push((output, problems));
        if start.elapsed().as_secs_f64() + took > ctx.seconds {
            break;
        }
    }
    let pulse = heart.stop();

    let mut first: Option<Fingerprint> = None;
    for (i, (rep, (output, problems))) in reps.iter().zip(&mut checks).enumerate() {
        let e = &rep.what;
        e.usage.check_rss(problems);
        verify(&ctx.feves, output, problems);
        let print = fingerprint(output)?;
        match first {
            None => {
                first = Some(print);
                check_artifact(output, input, e.wrote.map(|(_, mean)| mean), problems);
                // Frames are causal, so the warm-up's artifact is the head
                // of this one.
                let warm = std::fs::read(&inputs.warm_out)?;
                let mut head = vec![0u8; warm.len()];
                let read = std::fs::File::open(&*output)?.read_exact(&mut head);
                if read.is_err() || head != warm {
                    problems.push("warm-up artifact is not a prefix of this one".into());
                }
            }
            Some(fp) => {
                if print != fp {
                    problems.push("artifact differs from the first repetition's".into());
                }
            }
        }
        ops.record(&format!("{} rep {i}", w.name), problems);
    }

    let spans: Vec<Span> = reps.iter().map(|r| r.span).collect();
    Ok(outcome(&pulse, ops, &spans, |slow| {
        let n = w.frames as f64;
        let wall_s = median_at(&reps, slow, |e, slow| e.usage.wall_s / slow);
        let cpu_ms = |e: &Encoded, slow: f64| e.usage.cpu_s() / slow * 1e3 / n;
        let mut metrics = vec![
            ("setup_s", median_at(&set_ups, slow, |s, slow| s / slow)),
            ("encode_fps", n / wall_s),
            ("cpu_ms_per_frame", median_at(&reps, slow, cpu_ms)),
            (
                "peak_rss_mb",
                median_at(&reps, slow, |e, _| e.usage.peak_rss_mb),
            ),
            ("jobs_per_s", 1.0 / wall_s),
            ("job_latency_ms_p50", wall_s * 1e3),
        ];
        rate_and_quality(reps.iter().map(|r| &r.what), w.frames, &mut metrics);
        metrics
    }))
}

/// Standalone encodes of every input: the bytes each farm artifact must
/// equal, and the workload's bits and PSNR. Each is one op.
fn references(
    ctx: &Ctx,
    w: &Workload,
    dir: &Path,
    inputs: &Inputs,
    ops: &mut Ops,
) -> std::io::Result<(Vec<Encoded>, Vec<Fingerprint>)> {
    let mut encodes = Vec::new();
    let mut prints = Vec::new();
    for (i, input) in inputs.paths.iter().enumerate() {
        let output = dir.join(format!("ref{i}.y4m"));
        let mut problems = Vec::new();
        let e = encode_once(ctx, w, input, &output, &mut problems)?;
        verify(&ctx.feves, &output, &mut problems);
        check_artifact(&output, input, e.wrote.map(|(_, m)| m), &mut problems);
        ops.record(&format!("reference encode {i}"), &problems);
        prints.push(fingerprint(&output)?);
        encodes.push(e);
    }
    Ok((encodes, prints))
}

/// `n` farm jobs over the inputs in turn, artifacts under `dir/<tag>`.
pub fn jobs_over(
    dir: &Path,
    tag: &str,
    n: usize,
    inputs: &Inputs,
    prints: &[Fingerprint],
) -> std::io::Result<Vec<Job>> {
    let out = dir.join(tag);
    fresh_dir(&out)?;
    Ok((0..n)
        .map(|k| Job {
            id: format!("{tag}-{k}"),
            input: inputs.paths[k % inputs.paths.len()].clone(),
            output: out.join(format!("{k}.y4m")),
            reference: prints[k % prints.len()],
        })
        .collect())
}

/// One closed batch: its daemon, and the pace of its completions.
struct Batch {
    daemon: Daemon,
    /// Completions per second over every window of half a batch.
    rates: Vec<f64>,
}

fn run_farm(ctx: &Ctx, w: &Workload) -> std::io::Result<Outcome> {
    let dir = ctx.fresh_dir(w.name)?;
    let mut ops = Ops::default();
    let heart = Heartbeat::start();
    let (inputs, set_ups) = timed_set_ups(ctx, w, &dir, &mut ops, &heart)?;
    let start = Instant::now();
    let (refs, prints) = references(ctx, w, &dir, &inputs, &mut ops)?;

    // Closed batches for capacity, for up to two fifths of the run length. What a
    // batch says of capacity is the pace of its completions, taken from the
    // done records once its daemon has gone.
    let mut batches: Vec<Timed<Batch>> = Vec::new();
    let batching = Instant::now();
    loop {
        let rep = batches.len();
        let jobs = jobs_over(&dir, &format!("b{rep}"), w.batch_jobs, &inputs, &prints)?;
        let spool = dir.join(format!("spool-b{rep}"));
        let t = Instant::now();
        let (daemon, span) = heart.time(|| run_batch(&ctx.feves, w, &spool, &jobs, &mut ops));
        let Some(daemon) = daemon else {
            break;
        };
        let mut problems = Vec::new();
        daemon.usage.check_rss(&mut problems);
        if !problems.is_empty() {
            ops.record("batch daemon", &problems);
        }
        let rates = window_rates(&completion_times(&spool, &jobs), w.batch_jobs / 2);
        batches.push(Timed {
            what: Batch { daemon, rates },
            span,
        });
        if (batching.elapsed() + t.elapsed()).as_secs_f64() > ctx.seconds * BATCH_SHARE {
            break;
        }
    }

    // Open loop for latency over what is left of the run length, and no
    // less than half of it: the median of a dozen latencies is at the mercy
    // of two slow jobs.
    let left = (ctx.seconds - start.elapsed().as_secs_f64()).max(ctx.seconds * 0.5);
    let n = ((w.paced_rate * left).round() as usize).max(4);
    let jobs = jobs_over(&dir, "p", n, &inputs, &prints)?;
    let due = arrival_schedule(ctx.seed, n, w.paced_rate);
    let spool = dir.join("spool-p");
    let paced = run_paced(&ctx.feves, w, &spool, &jobs, &due, &mut ops);
    // Each paced job that finished, from its due time to its done record.
    let paced_jobs = paced.iter().flat_map(|p| {
        let t0 = heart.at(p.t0);
        let jobs = p.due_s.iter().zip(&p.latencies_ms);
        jobs.map(move |(due_s, ms)| Timed {
            what: *ms,
            span: (t0 + due_s, t0 + due_s + ms / 1e3),
        })
    });
    let paced_jobs: Vec<Timed<f64>> = paced_jobs.collect();
    let pulse = heart.stop();

    let spans = batches.iter().map(|b| b.span);
    let spans: Vec<Span> = spans.chain(paced_jobs.iter().map(|p| p.span)).collect();
    eprintln!(
        "  {} batches of {}, {} windows of {} completions each; {} paced jobs at {} jobs/s, generator at most {:.1} ms late",
        batches.len(),
        w.batch_jobs,
        w.batch_jobs - 1 - w.batch_jobs / 2,
        w.batch_jobs / 2,
        paced_jobs.len(),
        w.paced_rate,
        paced.as_ref().map_or(f64::NAN, |p| p.gen_late_ms_max)
    );
    if batches.is_empty() {
        eprintln!("FAILED {}: no batch finished", w.name);
    }
    if paced_jobs.is_empty() {
        eprintln!("FAILED {}: no paced job finished", w.name);
    }
    Ok(outcome(&pulse, ops, &spans, |slow| {
        let batch_frames = (w.batch_jobs * w.frames) as f64;
        let mut metrics = vec![("setup_s", median_at(&set_ups, slow, |s, slow| s / slow))];
        let rates = batches.iter().flat_map(|b| {
            let slow = slow(b.span);
            b.what.rates.iter().map(move |r| r * slow)
        });
        let rates: Vec<f64> = rates.collect();
        if !rates.is_empty() {
            metrics.extend([
                (
                    "cpu_ms_per_frame",
                    median_at(&batches, slow, |b, slow| {
                        b.daemon.usage.cpu_s() / slow * 1e3 / batch_frames
                    }),
                ),
                // How much a daemon holds depends on how its sessions
                // interleave, so the figure is the median over the batches.
                (
                    "peak_rss_mb",
                    median_at(&batches, slow, |b, _| b.daemon.usage.peak_rss_mb),
                ),
                ("jobs_per_s", median(&rates)),
                // Frames through the whole farm, both sessions together.
                ("encode_fps", median(&rates) * w.frames as f64),
            ]);
        }
        if !paced_jobs.is_empty() {
            let p50 = median_at(&paced_jobs, slow, |ms, slow| ms / slow);
            metrics.push(("job_latency_ms_p50", p50));
        }
        rate_and_quality(refs.iter(), w.frames, &mut metrics);
        metrics
    }))
}
