//! Driving `feves serve` over a spool directory: a closed batch (everything
//! spooled before the daemon starts, which then runs until idle) and an open
//! loop (a running daemon fed on a schedule, whatever its backlog).

use crate::child::{self, parse_farm_summary, FarmSummary, Usage};
use crate::cli::{fingerprint, read_done, serve_cmd, submit_cmd, Fingerprint, Ops};
use crate::fresh_dir;
use crate::spec::Workload;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::{Duration, Instant, UNIX_EPOCH};

/// One farm job and the bytes a standalone `feves encode` of the same input
/// and flags produced, which the farm's artifact must equal.
pub struct Job {
    pub id: String,
    pub input: PathBuf,
    pub output: PathBuf,
    pub reference: Fingerprint,
}

/// A daemon that has exited, and what it said it did.
pub struct Daemon {
    pub usage: Usage,
    pub summary: FarmSummary,
}

/// Submit `job`; returns the submit's wall in ms.
fn submit(feves: &Path, w: &Workload, spool: &Path, job: &Job) -> Result<f64, String> {
    let mut cmd = submit_cmd(feves, w, spool, &job.input, &job.output, &job.id);
    match child::run(&mut cmd) {
        Ok(r) if r.ok() => Ok(r.usage.wall_s * 1e3),
        Ok(r) => Err(format!("feves submit: {}", r.stderr.trim())),
        Err(e) => Err(format!("feves submit: {e}")),
    }
}

/// Hold a finished job against its done record and its reference bytes.
fn check_job(spool: &Path, job: &Job, problems: &mut Vec<String>) {
    let done = spool.join("done").join(format!("{}.json", job.id));
    match read_done(&done) {
        Ok(status) if status == "completed" => {}
        Ok(status) => problems.push(format!("done record says {status}")),
        Err(e) => problems.push(e),
    }
    match fingerprint(&job.output) {
        Ok(fp) if fp == job.reference => {}
        Ok(_) => problems.push(format!(
            "{} differs from a standalone encode of {}",
            job.output.display(),
            job.input.display()
        )),
        Err(e) => problems.push(format!("{}: {e}", job.output.display())),
    }
}

fn digest_daemon(run: std::io::Result<child::Run>) -> Result<Daemon, String> {
    let run = run.map_err(|e| format!("feves serve: {e}"))?;
    if !run.ok() {
        return Err(format!(
            "feves serve exit {:?}: {}",
            run.usage.exit,
            run.stderr.lines().last().unwrap_or("")
        ));
    }
    let summary = match run.lines.as_slice() {
        [(_, line)] => parse_farm_summary(line),
        _ => None,
    };
    let summary = summary.ok_or_else(|| {
        let lines: Vec<&str> = run.lines.iter().map(|(_, l)| l.as_str()).collect();
        format!("feves serve printed {lines:?}, not one farm summary")
    })?;
    Ok(Daemon {
        usage: run.usage,
        summary,
    })
}

/// Closed batch: spool every job, then let a fresh daemon run until idle.
/// Each job is one operation. `None` when the daemon itself failed, which
/// fails every job of the batch.
pub fn run_batch(
    feves: &Path,
    w: &Workload,
    spool: &Path,
    jobs: &[Job],
    ops: &mut Ops,
) -> Option<Daemon> {
    let mut broken = fresh_dir(spool).err().map(|e| e.to_string());
    for job in jobs {
        if broken.is_none() {
            broken = submit(feves, w, spool, job).err();
        }
    }
    let daemon = match broken {
        None => digest_daemon(child::run(&mut serve_cmd(feves, spool, true))),
        Some(e) => Err(e),
    };
    for job in jobs {
        let mut problems = Vec::new();
        match &daemon {
            Ok(_) => check_job(spool, job, &mut problems),
            Err(e) => problems.push(e.clone()),
        }
        ops.record(&format!("farm job {}", job.id), &problems);
    }
    daemon.ok()
}

/// When each of `jobs` finished, in seconds and in order: the modification
/// times the daemon left on its done records, so that nothing of the
/// benchmark runs beside a batch it measures. Jobs without a record are left
/// out; `check_job` has already failed them.
pub fn completion_times(spool: &Path, jobs: &[Job]) -> Vec<f64> {
    let done = spool.join("done");
    let mut at: Vec<f64> = jobs
        .iter()
        .filter_map(|job| {
            let written = std::fs::metadata(done.join(format!("{}.json", job.id)));
            let since = written.ok()?.modified().ok()?.duration_since(UNIX_EPOCH);
            Some(since.ok()?.as_secs_f64())
        })
        .collect();
    at.sort_by(f64::total_cmp);
    at
}

/// What the open loop measured.
pub struct Paced {
    pub daemon: Daemon,
    /// When the arrival clock started.
    pub t0: Instant,
    /// Due time to done record, ms, of the jobs that completed correctly.
    pub latencies_ms: Vec<f64>,
    /// When each of those jobs was due, seconds after `t0`.
    pub due_s: Vec<f64>,
    /// Jobs over the limit; a failed or refused job counts as over it.
    pub slo_misses: usize,
    /// The latest any submit started after its due time, ms.
    pub gen_late_ms_max: f64,
    pub submit_ms: Vec<f64>,
}

/// Open loop: start a daemon, submit `jobs[i]` at `due_s[i]` seconds however
/// far behind the farm is, and time each job from its *due* time to the
/// appearance of its done record. Then drain the daemon.
pub fn run_paced(
    feves: &Path,
    w: &Workload,
    spool: &Path,
    jobs: &[Job],
    due_s: &[f64],
    ops: &mut Ops,
) -> Option<Paced> {
    assert_eq!(jobs.len(), due_s.len());
    if let Err(e) = fresh_dir(spool) {
        ops.record("paced farm", &[e.to_string()]);
        return None;
    }
    let patience = Duration::from_secs_f64(w.slo_ms / 1e3 * 4.0 + 10.0);
    let mut seen_ms: Vec<Option<f64>> = vec![None; jobs.len()];
    let mut submit_ms = Vec::new();
    let mut submit_err: Vec<Option<String>> = vec![None; jobs.len()];
    let mut late_max = 0.0f64;
    let mut t0 = Instant::now();
    let daemon = std::thread::scope(|s| {
        let daemon = s.spawn(|| child::run(&mut serve_cmd(feves, spool, false)));
        // The arrival clock starts once the daemon has made its spool.
        let up = Instant::now();
        while !spool.join("ctl").is_dir() && up.elapsed() < Duration::from_secs(10) {
            std::thread::sleep(Duration::from_millis(1));
        }
        t0 = Instant::now();
        let mut next = 0;
        let mut open = 0;
        while next < jobs.len() || open > 0 {
            let now = t0.elapsed().as_secs_f64();
            if next < jobs.len() && now >= due_s[next] {
                late_max = late_max.max((now - due_s[next]) * 1e3);
                match submit(feves, w, spool, &jobs[next]) {
                    Ok(ms) => {
                        submit_ms.push(ms);
                        open += 1;
                    }
                    Err(e) => submit_err[next] = Some(e),
                }
                next += 1;
                continue;
            }
            for (i, job) in jobs.iter().enumerate().take(next) {
                let pending = seen_ms[i].is_none() && submit_err[i].is_none();
                if pending && spool.join("done").join(format!("{}.json", job.id)).exists() {
                    seen_ms[i] = Some((t0.elapsed().as_secs_f64() - due_s[i]) * 1e3);
                    open -= 1;
                }
            }
            let last_due = Duration::from_secs_f64(due_s[jobs.len() - 1]);
            if next == jobs.len() && t0.elapsed() > last_due + patience {
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let drain = child::run(Command::new(feves).arg("drain").arg(spool));
        if !drain.is_ok_and(|r| r.ok()) {
            // The daemon must still end: leave the marker `drain` writes.
            let _ = std::fs::write(spool.join("ctl").join("drain"), "drain\n");
            ops.record("feves drain", &["did not exit 0".to_string()]);
        }
        daemon.join().expect("daemon runner does not panic")
    });
    let daemon = digest_daemon(daemon);
    let mut paced_ok = Vec::new();
    let mut paced_due = Vec::new();
    let mut misses = 0;
    for (i, job) in jobs.iter().enumerate() {
        let mut problems = Vec::new();
        if let Err(e) = &daemon {
            problems.push(e.clone());
        }
        match (&submit_err[i], seen_ms[i]) {
            (Some(e), _) => problems.push(e.clone()),
            (None, None) => problems.push("no done record before the deadline".into()),
            (None, Some(_)) => check_job(spool, job, &mut problems),
        }
        match seen_ms[i] {
            Some(ms) if problems.is_empty() => {
                paced_ok.push(ms);
                paced_due.push(due_s[i]);
                misses += usize::from(ms > w.slo_ms);
            }
            _ => misses += 1,
        }
        ops.record(&format!("paced job {}", job.id), &problems);
    }
    Some(Paced {
        daemon: daemon.ok()?,
        t0,
        latencies_ms: paced_ok,
        due_s: paced_due,
        slo_misses: misses,
        gen_late_ms_max: late_max,
        submit_ms,
    })
}
