//! Storage faults under the farm: seeded I/O fault schedules over farm
//! encodes, proving the two invariants the storage-robustness design
//! promises:
//!
//! 1. **Zero lost jobs** — whatever ENOSPC / EIO / short-write / torn-rename
//!    / bit-rot schedule fires, every submitted job either reaches a typed
//!    terminal done record or its spool file survives for the next daemon.
//! 2. **Verify-before-completed** — no job is ever reported `completed`
//!    unless its artifact re-reads byte-exact; corrupt artifacts,
//!    checkpoints and control files are rejected with typed errors, never
//!    crashed on and never blessed.
//!
//! A single session under storage faults is a plane of `fault_planes`. The
//! fault seed comes from `FEVES_FAULT_SEED` (default 1) so CI can sweep
//! schedules; with `FEVES_FAULT_ARTIFACT=dir` each test dumps its fault
//! counts and done records there for upload.

mod common;

use common::{fault_artifact, fault_seed, job_spec, run as run_cli, scratch, write_input};
use feves::ft::io::{inject, FaultPlan, FaultyIo};
use feves::serve::farm::{self, FarmConfig};
use feves::serve::job::{self, JobSpec};
use feves::serve::session::{run_session, verify_artifact};
use feves::serve::signal;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn farm_cfg(dir: &Path) -> FarmConfig {
    FarmConfig {
        spool: dir.join("spool"),
        exit_when_idle: true,
        poll_ms: 10,
        retry_base_ms: 5,
        ..FarmConfig::default()
    }
}

fn done_path(dir: &Path, id: &str) -> PathBuf {
    job::done_dir(&dir.join("spool")).join(format!("{id}.json"))
}

fn done_text(dir: &Path, id: &str) -> Option<String> {
    std::fs::read_to_string(done_path(dir, id)).ok()
}

/// Encode the reference artifact in a fault-free directory: what every
/// completed job's bytes must equal, bit for bit.
fn clean_baseline(dir: &Path) -> Vec<u8> {
    let clean = dir.join("clean");
    std::fs::create_dir_all(&clean).unwrap();
    std::fs::copy(dir.join("in.y4m"), clean.join("in.y4m")).unwrap();
    let base = job_spec(&clean, "baseline");
    let ctl = Arc::new(feves::core::SessionCtl::new());
    let rep = run_session(&base, &ctl, feves::obs::hub().session("baseline"), 0, None).unwrap();
    verify_artifact(&base.output, rep.out_bytes, rep.artifact_crc).unwrap();
    std::fs::read(&base.output).unwrap()
}

/// On request (`FEVES_FAULT_ARTIFACT=dir`), dump the fault schedule
/// counters and every done record — CI uploads these when a seed fails.
fn dump_artifacts(tag: &str, faulty: &FaultyIo, dir: &Path) {
    let Some(out) = fault_artifact() else {
        return;
    };
    let mut body = format!("seed {}\ncounts {:?}\n", fault_seed(), faulty.counts());
    if let Ok(entries) = std::fs::read_dir(job::done_dir(&dir.join("spool"))) {
        for e in entries.filter_map(|e| e.ok()) {
            if let Ok(text) = std::fs::read_to_string(e.path()) {
                body.push_str(&format!("--- {}\n{text}\n", e.path().display()));
            }
        }
    }
    let _ = std::fs::write(out.join(format!("{tag}-seed{}.txt", fault_seed())), body);
}

/// Invariant 1, checked from outside the farm: a submitted job is *lost*
/// only if it has no done record AND no surviving spool file.
fn assert_no_lost_jobs(dir: &Path, ids: &[&str]) {
    for id in ids {
        let spooled = dir.join("spool").join(format!("{id}.json")).exists();
        let done = done_path(dir, id).exists();
        assert!(
            spooled || done,
            "job '{id}' lost: no done record and no spool file"
        );
    }
}

/// Invariant 2: every done record claiming `completed` must name an
/// artifact that re-reads byte-exact against the clean baseline.
fn assert_completed_verify(dir: &Path, ids: &[&str], baseline: &[u8]) {
    for id in ids {
        let Some(text) = done_text(dir, id) else {
            continue;
        };
        if !text.contains("\"completed\"") {
            continue;
        }
        let bytes = std::fs::read(dir.join(format!("{id}.y4m"))).unwrap_or_default();
        assert_eq!(
            bytes, baseline,
            "job '{id}' reported completed but its artifact is not byte-exact"
        );
    }
}

#[test]
fn farm_under_transient_fault_schedule_loses_no_jobs() {
    signal::reset();
    let dir = scratch("farm-transient");
    write_input(&dir.join("in.y4m"), 11, 6);
    let baseline = clean_baseline(&dir);

    let ids = ["t0", "t1", "t2"];
    for id in &ids {
        job::write_job(&dir.join("spool"), &job_spec(&dir, id)).unwrap();
    }

    // Phase 1: the whole scratch dir — spool control files, checkpoints,
    // artifacts — runs on a seeded transient-fault backend. The farm may
    // finish, or abort on an exhausted retry budget; either way nothing
    // may be lost and nothing corrupt may be blessed.
    let faulty = Arc::new(FaultyIo::new(FaultPlan::transient(fault_seed())));
    let scope = inject(&dir, faulty.clone());
    let phase1 = farm::run(farm_cfg(&dir));
    dump_artifacts("farm-transient", &faulty, &dir);
    let c = faulty.counts();
    assert!(
        c.transient_eio + c.short_writes + c.torn_renames > 0,
        "schedule fired no faults — chaos harness is not injecting ({c:?})"
    );
    drop(scope);
    assert_no_lost_jobs(&dir, &ids);
    assert_completed_verify(&dir, &ids, &baseline);

    // Phase 2: faults gone, a fresh daemon converges every surviving spool
    // file to a verified completion.
    signal::reset();
    let phase2 = farm::run(farm_cfg(&dir)).unwrap();
    assert!(!phase2.drained);
    assert_no_lost_jobs(&dir, &ids);
    assert_completed_verify(&dir, &ids, &baseline);
    for id in &ids {
        let text = done_text(&dir, id).expect("terminal done record");
        assert!(
            text.contains("\"completed\"") || text.contains("\"failed\""),
            "job '{id}' has no terminal outcome after the clean pass:\n{text}"
        );
    }
    // Across both phases every job either completed (verified above) or
    // failed typed under phase 1's schedule; phase 1's Result itself may be
    // an Err — that is an accounted abort, not data loss.
    let _ = phase1;
}

#[test]
fn rotted_artifact_is_never_reported_completed() {
    signal::reset();
    let dir = scratch("rot");
    write_input(&dir.join("in.y4m"), 11, 6);
    let baseline = clean_baseline(&dir);

    let spec = job_spec(&dir, "rotme");
    job::write_job(&dir.join("spool"), &spec).unwrap();

    // Bit-rot fires on *every* fsync of the artifact file (and only it —
    // checkpoints and control files are clean), so each attempt's output
    // is guaranteed corrupt. The farm must burn its retries and record a
    // typed failure; "completed" would be a lie about corrupt bytes.
    let faulty = Arc::new(FaultyIo::new(FaultPlan {
        seed: fault_seed(),
        bitrot_per_mille: 1000,
        ..FaultPlan::default()
    }));
    let scope = inject(PathBuf::from(&spec.output), faulty.clone());
    let cfg = FarmConfig {
        retry_budget: 1,
        ..farm_cfg(&dir)
    };
    let report = farm::run(cfg).unwrap();
    dump_artifacts("rot", &faulty, &dir);
    assert_eq!(
        (report.completed, report.failed),
        (0, 1),
        "a permanently rotting artifact must fail, not complete: {report:?}"
    );
    assert!(report.retried >= 1, "verify failure must trigger a retry");
    let text = done_text(&dir, "rotme").unwrap();
    assert!(text.contains("\"failed\""), "{text}");
    assert!(
        text.contains("checksum") || text.contains("corrupt"),
        "failure must be the typed corruption error:\n{text}"
    );
    assert!(faulty.counts().bitrot > 0);
    drop(scope);

    // Rot cured: a resubmit completes and verifies byte-exact.
    signal::reset();
    job::write_job(&dir.join("spool"), &spec).unwrap();
    let report = farm::run(farm_cfg(&dir)).unwrap();
    assert_eq!(report.completed, 1, "{report:?}");
    assert_eq!(std::fs::read(&spec.output).unwrap(), baseline);
}

#[test]
fn disk_pressure_pauses_admission_and_recovers() {
    signal::reset();
    let dir = scratch("pressure");
    write_input(&dir.join("in.y4m"), 11, 6);
    let baseline = clean_baseline(&dir);

    let spec = job_spec(&dir, "squeezed");
    job::write_job(&dir.join("spool"), &spec).unwrap();

    // The spool filesystem reports 1 KiB free — far below the 1 MiB low
    // watermark — so the farm must hold the job unadmitted in the spool.
    let faulty = Arc::new(FaultyIo::new(FaultPlan::default()));
    faulty.set_free_space(Some(1024));
    let _scope = inject(&dir, faulty.clone());
    let cfg = FarmConfig {
        disk_low_bytes: 1024 * 1024,
        ..farm_cfg(&dir)
    };
    let handle = std::thread::spawn(move || farm::run(cfg));
    std::thread::sleep(std::time::Duration::from_millis(400));
    assert!(
        !handle.is_finished(),
        "farm must not idle-exit while disk pressure holds work back"
    );
    assert!(
        dir.join("spool").join("squeezed.json").exists(),
        "paused admission must leave the spool file in place"
    );
    assert!(
        !done_path(&dir, "squeezed").exists(),
        "no terminal record may exist for an unadmitted job"
    );

    // Space recovers: pressure clears, the job is admitted, completes, and
    // the farm exits idle on its own.
    faulty.set_free_space(None);
    let report = handle.join().unwrap().unwrap();
    dump_artifacts("pressure", &faulty, &dir);
    assert_eq!((report.completed, report.failed), (1, 0), "{report:?}");
    assert_eq!(std::fs::read(&spec.output).unwrap(), baseline);
}

#[test]
fn verify_subcommand_accepts_pristine_and_rejects_corruption() {
    signal::reset();
    let dir = scratch("verify");
    write_input(&dir.join("in.y4m"), 11, 6);

    // Produce a pristine artifact + checkpoint dir + framed spool/done
    // control files through the real farm.
    let spec = job_spec(&dir, "pristine");
    job::write_job(&dir.join("spool"), &spec).unwrap();
    let report = farm::run(farm_cfg(&dir)).unwrap();
    assert_eq!(report.completed, 1, "{report:?}");
    let artifact = dir.join("pristine.y4m");
    let done = done_path(&dir, "pristine");
    // A spool spec to verify (the farm consumed the original).
    let spool_spec = job::write_job(&dir.join("spool"), &job_spec(&dir, "queued")).unwrap();

    // Pristine everything verifies clean.
    for p in [&artifact, &done, &spool_spec] {
        let (ok, stdout, stderr) = run_cli(&["verify", p.to_str().unwrap()]);
        assert!(ok, "pristine {} must verify: {stderr}", p.display());
        assert!(stdout.contains("ok"), "{stdout}");
    }

    // One flipped byte in each class must flip the verdict to a typed
    // error on stderr and exit nonzero — rejected, not crashed on.
    let corrupt = |src: &Path, name: &str, at_marker: Option<&[u8]>| -> PathBuf {
        let mut bytes = std::fs::read(src).unwrap();
        let at = match at_marker {
            // Break a structural marker: pixel rot is only catchable
            // against a recorded CRC, structure rot by any reader.
            Some(m) => {
                bytes
                    .windows(m.len())
                    .rposition(|w| w == m)
                    .expect("marker present")
                    + 1
            }
            None => bytes.len() / 2,
        };
        bytes[at] ^= 0x40;
        let p = dir.join(name);
        std::fs::write(&p, bytes).unwrap();
        p
    };
    let bad_artifact = corrupt(&artifact, "bad.y4m", Some(b"FRAME"));
    let bad_done = corrupt(&done, "bad-done.json", None);
    let bad_spec = corrupt(&spool_spec, "bad-spec.json", None);
    let ckpt_dir = dir.join("pristine.y4m.ckpt");
    let bad_ckpt = std::fs::read_dir(&ckpt_dir)
        .ok()
        .and_then(|mut d| d.find_map(|e| e.ok().map(|e| e.path())))
        .map(|ck| corrupt(&ck, "bad.ckpt", None));
    for p in [
        Some(&bad_artifact),
        Some(&bad_done),
        Some(&bad_spec),
        bad_ckpt.as_ref(),
    ]
    .into_iter()
    .flatten()
    {
        let (ok, _, stderr) = run_cli(&["verify", p.to_str().unwrap()]);
        assert!(!ok, "corrupted {} must fail verification", p.display());
        assert!(
            stderr.contains("error") || stderr.contains("corrupt") || stderr.contains("checksum"),
            "{}: expected a typed error, got:\n{stderr}",
            p.display()
        );
    }

    // Directory mode: a tree with one rotten file fails as a whole and
    // names the count.
    std::fs::copy(&bad_spec, dir.join("spool").join("zz-bad.json")).unwrap();
    let (ok, _, stderr) = run_cli(&["verify", dir.join("spool").to_str().unwrap()]);
    assert!(!ok, "spool dir containing bad-spec.json must fail");
    assert!(stderr.contains("failed verification"), "{stderr}");
}

#[test]
fn farm_session_restarts_from_frame_zero_on_a_rejected_checkpoint() {
    // The same mismatches `feves resume` refuses are not errors under the
    // farm: the attempt drops the checkpoint and re-encodes from frame 0,
    // and the artifact still equals an uninterrupted `feves encode`.
    signal::reset();
    type Mutate = fn(&JobSpec);
    let cases: [(&str, Mutate); 4] = [
        ("input", |job| write_input(Path::new(&job.input), 11, 8)),
        ("short", |job| {
            let bytes = std::fs::read(&job.output).unwrap();
            std::fs::write(&job.output, &bytes[..bytes.len() / 3]).unwrap();
        }),
        ("rot", |job| {
            let mut bytes = std::fs::read(&job.output).unwrap();
            bytes[1000] ^= 0x10;
            std::fs::write(&job.output, bytes).unwrap();
        }),
        // Preempted before its first frame: a checkpoint with no output.
        ("frame0", |_| {}),
    ];
    let cli_encode = |input: &str| {
        let out = format!("{input}.cli.y4m");
        let (ok, _, stderr) = run_cli(&["encode", input, &out, "--sa", "16", "--refs", "2"]);
        assert!(ok, "{stderr}");
        std::fs::read(out).unwrap()
    };
    // Three of the four cases leave the (same, seeded) input alone.
    let mut unchanged_input: Option<Vec<u8>> = None;
    for (tag, mutate) in cases {
        let dir = scratch(&format!("reject-{tag}"));
        write_input(&dir.join("in.y4m"), 11, 6);
        let mut spec = job_spec(&dir, tag);
        let ctl = Arc::new(feves::core::SessionCtl::new());
        let session = |spec: &JobSpec, attempt| {
            let label = format!("reject-{tag}-{attempt}");
            run_session(spec, &ctl, feves::obs::hub().session(&label), attempt, None)
        };
        if tag == "frame0" {
            ctl.request_stop();
            let rep = session(&spec, 0).unwrap();
            assert_eq!((rep.frames_done, rep.interrupted), (0, true));
        } else {
            spec.chaos_kill_at = Some(3);
            let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                let _ = session(&spec, 0);
            }));
            assert!(killed.is_err(), "{tag}: attempt 0 must die at frame 3");
        }
        let (_, ctx, _, _) = feves::core::load_latest(&spec.ckpt_dir()).unwrap();
        assert_eq!(ctx.frames_done, if tag == "frame0" { 0 } else { 2 });

        mutate(&spec);
        let ctl = Arc::new(feves::core::SessionCtl::new());
        let label = format!("reject-{tag}-retry");
        let rep = run_session(&spec, &ctl, feves::obs::hub().session(&label), 1, None)
            .unwrap_or_else(|e| panic!("{tag}: retry must start over, got {e}"));
        assert!(!rep.interrupted, "{tag}");
        verify_artifact(&spec.output, rep.out_bytes, rep.artifact_crc).unwrap();

        let want = match (&unchanged_input, tag) {
            (Some(bytes), "short" | "rot" | "frame0") => bytes.clone(),
            _ => cli_encode(&spec.input),
        };
        assert_eq!(
            std::fs::read(&spec.output).unwrap(),
            want,
            "{tag}: restarted farm artifact differs from `feves encode`"
        );
        if tag != "input" {
            unchanged_input = Some(want);
        }
    }
}
