//! Farm acceptance: drive the real `feves` binary through the spool
//! protocol — submit, serve, drain — and prove the service-mode
//! guarantees end to end. Every accepted job must finish **byte-identical**
//! to a single-session `feves encode` of the same spec (whatever leases,
//! faults, retries, or drains happened), or fail with typed culprit
//! attribution in its done record. Admission must reject past the queue's
//! bound, and a `SIGTERM` drain must exit zero with zero lost jobs.

mod common;

use common::{feves_bin, run, scratch, write_input};
use feves::obs::LiveSnapshot;
use std::fs;
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::Duration;

/// The encode flags every job in this suite shares — both the single-session
/// baseline and the submitted job spec must use exactly these.
const COMMON: &[&str] = &["--platform", "syshk", "--sa", "16", "--refs", "2"];

/// Uninterrupted single-session reference encode → output bytes.
fn baseline(dir: &Path, input: &str, tag: &str, extra: &[&str]) -> Vec<u8> {
    let out = dir.join(format!("baseline-{tag}.y4m"));
    let out = out.to_str().unwrap().to_string();
    let mut args = vec!["encode", input, &out];
    args.extend_from_slice(COMMON);
    args.extend_from_slice(extra);
    let (ok, _, stderr) = run(&args);
    assert!(ok, "baseline encode failed:\n{stderr}");
    fs::read(out).unwrap()
}

fn submit(spool: &str, input: &str, output: &str, id: &str, extra: &[&str]) {
    let mut args = vec!["submit", spool, input, output, "--id", id];
    args.extend_from_slice(COMMON);
    args.extend_from_slice(extra);
    let (ok, stdout, stderr) = run(&args);
    assert!(
        ok,
        "submit {id} failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(stdout.contains(id), "submit banner missing id:\n{stdout}");
}

/// The `farm` session's counter `name` in the final live snapshot at `live`.
fn farm_counter(live: &Path, name: &str) -> u64 {
    let text = fs::read_to_string(live)
        .unwrap_or_else(|e| panic!("missing live snapshot {}: {e}", live.display()));
    let snap = LiveSnapshot::parse(&text).unwrap();
    let sessions = snap.value().get("sessions").and_then(|s| s.as_array());
    let farm = sessions
        .into_iter()
        .flatten()
        .find(|s| s.get("label").and_then(|l| l.as_str()) == Some("farm"))
        .unwrap_or_else(|| panic!("no farm session in {text}"));
    farm.get("counters")
        .and_then(|c| c.get(name))
        .and_then(|v| v.as_u64())
        .unwrap_or_else(|| panic!("no counter {name} in the farm session:\n{text}"))
}

fn done_record(spool: &Path, id: &str) -> String {
    let path = spool.join("done").join(format!("{id}.json"));
    fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing done record {}: {e}", path.display()))
}

#[test]
fn farm_serves_jobs_bit_identical_to_single_session() {
    // Three jobs through one daemon — one of them loses a device mid-run
    // (Algorithm-1 fault handling inside the session). Every output must
    // match a single-session encode of the same spec byte for byte.
    let dir = scratch("fleet");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap();

    let mut want = Vec::new();
    for (i, extra) in [&[][..], &["--inject-fault", "0:death@3"][..], &[][..]]
        .iter()
        .enumerate()
    {
        let input = dir.join(format!("in{i}.y4m"));
        write_input(&input, 0xFA12 + i as u64, 6);
        let input = input.to_str().unwrap().to_string();
        let output = dir.join(format!("out{i}.y4m"));
        let output = output.to_str().unwrap().to_string();
        let id = format!("j{i}");
        want.push((
            id.clone(),
            output.clone(),
            baseline(&dir, &input, &id, extra),
        ));
        submit(spool_s, &input, &output, &id, extra);
    }

    let (ok, stdout, stderr) = run(&[
        "serve",
        spool_s,
        "--platform",
        "syshk",
        "--exit-when-idle",
        "--poll-ms",
        "20",
        "--max-inflight",
        "2",
    ]);
    assert!(ok, "serve failed:\nstdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("3 completed"), "summary line:\n{stdout}");

    for (id, output, bytes) in &want {
        let done = done_record(&spool, id);
        assert!(
            done.contains("\"completed\""),
            "done record for {id}:\n{done}"
        );
        assert_eq!(
            &fs::read(output).unwrap(),
            bytes,
            "farm output for {id} differs from single-session encode"
        );
        assert!(
            !spool.join(format!("{id}.json")).exists(),
            "completed job {id} must leave the spool"
        );
    }
}

#[test]
fn chaos_killed_session_retries_to_bit_exact_completion() {
    // A worker panic mid-session (injected via --chaos-kill-at) must be
    // caught, attributed, retried from the last durable checkpoint, and
    // still converge to the exact single-session bytes.
    let dir = scratch("chaos");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap();

    let input = dir.join("in.y4m");
    write_input(&input, 0xC0DE, 6);
    let input = input.to_str().unwrap();
    let output = dir.join("out.y4m");
    let output = output.to_str().unwrap();
    let want = baseline(&dir, input, "chaos", &[]);
    let live = dir.join("live.json");

    submit(
        spool_s,
        input,
        output,
        "jx",
        &[
            "--checkpoint-every",
            "2",
            "--chaos-kill-at",
            "3",
            "--chaos-device",
            "0",
        ],
    );
    let (ok, stdout, _) = run(&[
        "serve",
        spool_s,
        "--platform",
        "syshk",
        "--exit-when-idle",
        "--poll-ms",
        "20",
        "--live-out",
        live.to_str().unwrap(),
    ]);
    assert!(ok, "serve failed:\n{stdout}");
    assert!(stdout.contains("1 retried"), "retry count:\n{stdout}");
    assert_eq!(farm_counter(&live, "farm.retries"), 1, "{stdout}");

    let done = done_record(&spool, "jx");
    assert!(done.contains("\"completed\""), "done record:\n{done}");
    assert!(done.contains("\"attempts\": 2"), "attempt count:\n{done}");
    assert_eq!(
        fs::read(output).unwrap(),
        want,
        "retried job must be bit-identical to an undisturbed encode"
    );
}

#[test]
fn exhausted_retry_budget_fails_with_culprit_attribution() {
    let dir = scratch("budget");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap();

    let input = dir.join("in.y4m");
    write_input(&input, 0xDEAD, 4);
    let input = input.to_str().unwrap();
    let output = dir.join("out.y4m");
    let output = output.to_str().unwrap();
    let live = dir.join("live.json");

    submit(
        spool_s,
        input,
        output,
        "jf",
        &[
            "--checkpoint-every",
            "2",
            "--chaos-kill-at",
            "2",
            "--chaos-device",
            "0",
        ],
    );
    let (ok, stdout, _) = run(&[
        "serve",
        spool_s,
        "--platform",
        "syshk",
        "--exit-when-idle",
        "--poll-ms",
        "20",
        "--retry-budget",
        "0",
        "--live-out",
        live.to_str().unwrap(),
    ]);
    // The daemon survives the job failure — only the job is marked failed.
    assert!(ok, "serve must outlive a failing job:\n{stdout}");
    assert!(stdout.contains("1 failed"), "summary:\n{stdout}");
    assert_eq!(farm_counter(&live, "farm.jobs_failed"), 1, "{stdout}");

    let done = done_record(&spool, "jf");
    assert!(done.contains("\"failed\""), "done record:\n{done}");
    assert!(done.contains("panicked"), "failure reason:\n{done}");
    assert!(done.contains("\"culprit\": 0"), "culprit device:\n{done}");
}

#[test]
fn admission_rejects_above_high_watermark() {
    // Five jobs into a queue bounded at two with one session in flight:
    // exactly two may complete, the overflow must be rejected with a typed
    // done record — never silently dropped, never queued past the bound.
    let dir = scratch("admit");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap();

    let input = dir.join("in.y4m");
    write_input(&input, 0xAD01, 4);
    let input = input.to_str().unwrap();
    let live = dir.join("live.json");
    for i in 0..5 {
        let output = dir.join(format!("out{i}.y4m"));
        submit(
            spool_s,
            input,
            output.to_str().unwrap(),
            &format!("a{i}"),
            &[],
        );
    }

    let (ok, stdout, _) = run(&[
        "serve",
        spool_s,
        "--platform",
        "syshk",
        "--exit-when-idle",
        "--poll-ms",
        "20",
        "--queue-cap",
        "2",
        "--max-inflight",
        "1",
        "--live-out",
        live.to_str().unwrap(),
    ]);
    assert!(ok, "serve failed:\n{stdout}");
    // The farm's own counters tell the summary line's story.
    assert!(
        stdout.contains("2 completed, 0 failed, 3 rejected"),
        "summary:\n{stdout}"
    );
    assert_eq!(farm_counter(&live, "farm.jobs_completed"), 2, "{stdout}");
    assert_eq!(farm_counter(&live, "farm.admission_rejects"), 3, "{stdout}");

    let (mut completed, mut rejected) = (0, 0);
    for i in 0..5 {
        let done = done_record(&spool, &format!("a{i}"));
        if done.contains("\"completed\"") {
            completed += 1;
        } else if done.contains("\"rejected\"") {
            rejected += 1;
            assert!(
                done.contains("queue full"),
                "reject reason for a{i}:\n{done}"
            );
        } else {
            panic!("unexpected done record for a{i}:\n{done}");
        }
    }
    assert_eq!(
        (completed, rejected),
        (2, 3),
        "a bound of 2 with one in flight admits exactly two jobs:\n{stdout}"
    );
}

/// A spool file whose spec names another job (a copied `x.json`) is
/// refused under its own file name, with a reason that names both; the
/// job it copies runs once and leaves nothing in the spool.
#[test]
fn a_spec_whose_id_is_not_its_file_name_is_rejected() {
    let dir = scratch("idname");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap();
    let input = dir.join("in.y4m");
    write_input(&input, 0x1D01, 3);
    let output = dir.join("x.y4m");
    submit(
        spool_s,
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "x",
        &[],
    );
    fs::copy(spool.join("x.json"), spool.join("y.json")).unwrap();
    let live = dir.join("live.json");

    let (ok, stdout, _) = run(&[
        "serve",
        spool_s,
        "--platform",
        "syshk",
        "--exit-when-idle",
        "--poll-ms",
        "20",
        "--max-inflight",
        "1",
        "--live-out",
        live.to_str().unwrap(),
    ]);
    assert!(ok, "serve failed:\n{stdout}");
    assert!(
        stdout.contains("1 completed, 0 failed, 1 rejected"),
        "summary:\n{stdout}"
    );
    assert_eq!(farm_counter(&live, "farm.admission_rejects"), 1, "{stdout}");
    assert!(done_record(&spool, "x").contains("\"completed\""));
    let refused = done_record(&spool, "y");
    assert!(refused.contains("\"rejected\""), "{refused}");
    assert!(
        refused.contains("'x'") && refused.contains("'y'"),
        "the reason names both ids:\n{refused}"
    );
    let left: Vec<_> = fs::read_dir(&spool)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.path().extension().is_some_and(|x| x == "json"))
        .map(|e| e.file_name())
        .collect();
    assert!(left.is_empty(), "specs left in the spool: {left:?}");
}

/// Two specs that name one output: the later one is refused under its own
/// id, with a reason that names the job holding the path, and the first
/// job's done record describes the file on disk — at one session in
/// flight (the second would overwrite the first's artifact) and at two
/// (both would share `<out>.ckpt`).
#[test]
fn a_spec_whose_output_is_held_by_another_job_is_rejected() {
    for inflight in ["1", "2"] {
        let dir = scratch(&format!("shared-out-{inflight}"));
        let spool = dir.join("spool");
        fs::create_dir_all(&spool).unwrap();
        let spool_s = spool.to_str().unwrap();
        let output = dir.join("shared.y4m");
        let output = output.to_str().unwrap();
        let mut inputs = Vec::new();
        for (id, frames) in [("a", 4), ("b", 6)] {
            let input = dir.join(format!("{id}.y4m"));
            write_input(&input, 0x0A7 + frames as u64, frames);
            let input = input.to_str().unwrap().to_string();
            submit(spool_s, &input, output, id, &[]);
            inputs.push(input);
        }
        let want = baseline(&dir, &inputs[0], "a", &[]);

        let (ok, stdout, _) = run(&[
            "serve",
            spool_s,
            "--platform",
            "syshk",
            "--exit-when-idle",
            "--poll-ms",
            "20",
            "--max-inflight",
            inflight,
        ]);
        assert!(ok, "serve failed:\n{stdout}");
        assert!(
            stdout.contains("1 completed, 0 failed, 1 rejected, 0 retried"),
            "--max-inflight {inflight}, summary:\n{stdout}"
        );
        assert!(done_record(&spool, "a").contains("\"completed\""));
        assert_eq!(
            fs::read(output).unwrap(),
            want,
            "a's artifact was overwritten"
        );
        let refused = done_record(&spool, "b");
        assert!(refused.contains("\"rejected\""), "{refused}");
        assert!(
            refused.contains("'a'") && refused.contains("shared.y4m"),
            "the reason names the holder and the path:\n{refused}"
        );
    }
}

#[test]
fn sigterm_drain_exits_zero_and_loses_no_jobs() {
    // The chaos acceptance scenario: TERM a busy daemon. It must stop
    // admitting, checkpoint what's in flight, exit 0 — and a later daemon
    // on the same spool must finish every job bit-identically.
    let dir = scratch("drain");
    let spool = dir.join("spool");
    fs::create_dir_all(&spool).unwrap();
    let spool_s = spool.to_str().unwrap();

    let mut want = Vec::new();
    for i in 0..2 {
        let input = dir.join(format!("in{i}.y4m"));
        write_input(&input, 0xD5A1 + i as u64, 10);
        let input = input.to_str().unwrap().to_string();
        let output = dir.join(format!("out{i}.y4m"));
        let output = output.to_str().unwrap().to_string();
        let id = format!("d{i}");
        want.push((id.clone(), output.clone(), baseline(&dir, &input, &id, &[])));
        submit(spool_s, &input, &output, &id, &["--checkpoint-every", "2"]);
    }

    // No --exit-when-idle: this daemon runs until told to stop.
    let mut child = Command::new(feves_bin())
        .args([
            "serve",
            spool_s,
            "--platform",
            "syshk",
            "--poll-ms",
            "20",
            "--max-inflight",
            "1",
        ])
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn feves serve");
    // Let it get into the middle of a session, then TERM it.
    std::thread::sleep(Duration::from_millis(2500));
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    let status = child.wait().expect("wait for drained daemon");
    assert!(status.success(), "graceful drain must exit 0, got {status}");
    let mut stdout = String::new();
    child
        .stdout
        .take()
        .unwrap()
        .read_to_string(&mut stdout)
        .unwrap();
    assert!(stdout.contains("drained"), "drain summary:\n{stdout}");

    // Zero lost jobs: anything no longer in the spool must have a
    // "completed" done record; everything else is still spooled (queued or
    // checkpointed) and will be picked up by the next daemon.
    for (id, _, _) in &want {
        if !spool.join(format!("{id}.json")).exists() {
            let done = done_record(&spool, id);
            assert!(
                done.contains("\"completed\""),
                "job {id} left the spool without completing:\n{done}"
            );
        }
    }

    // A fresh daemon on the same spool finishes the drained remainder.
    let (ok, stdout, stderr) = run(&[
        "serve",
        spool_s,
        "--platform",
        "syshk",
        "--exit-when-idle",
        "--poll-ms",
        "20",
    ]);
    assert!(
        ok,
        "post-drain serve failed:\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    for (id, output, bytes) in &want {
        let done = done_record(&spool, id);
        assert!(
            done.contains("\"completed\""),
            "done record for {id}:\n{done}"
        );
        assert_eq!(
            &fs::read(output).unwrap(),
            bytes,
            "output for {id} after drain+resume differs from single-session encode"
        );
    }
}
