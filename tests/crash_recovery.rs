//! Process-kill chaos harness: spawn the `feves` CLI, kill it abruptly at
//! randomized frames and checkpoint phases (via `FEVES_CRASH_AT` aborts and
//! a real `SIGKILL`), and prove that `feves resume` completes the session
//! with output **bit-identical** to an uninterrupted run. Torn, corrupted,
//! and stale checkpoints must be rejected with a typed one-line error (or
//! fall back to the previous generation when one survives).

mod common;

use common::{fault_artifact, fault_seed, feves_bin, run_env as run, scratch, write_input};
use std::fs;
use std::io::BufRead;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};

const N_FRAMES: usize = 8;
const EVERY: usize = 2;

fn encode_args<'a>(input: &'a str, output: &'a str) -> Vec<&'a str> {
    vec![
        "encode",
        input,
        output,
        "--platform",
        "syshk",
        "--sa",
        "16",
        "--refs",
        "2",
    ]
}

/// Uninterrupted reference encode (no checkpointing) → output bytes.
fn baseline(dir: &Path, input: &str) -> Vec<u8> {
    let out = dir.join("baseline.y4m");
    let out = out.to_str().unwrap().to_string();
    let (ok, _, stderr) = run(&encode_args(input, &out), &[]);
    assert!(ok, "baseline encode failed:\n{stderr}");
    fs::read(out).unwrap()
}

/// One crash+resume cycle: run a checkpointed encode with `crash_at` armed
/// (must die), then `feves resume` on the checkpoint dir (must succeed),
/// and return the recovered output bytes.
fn crash_then_resume(dir: &Path, input: &str, crash_at: &str, extra: &[&str]) -> Vec<u8> {
    let out = dir.join(format!("out-{}.y4m", crash_at.replace(['@', '-'], "_")));
    let out = out.to_str().unwrap().to_string();
    let ckdir = format!("{out}.ckpt");
    let every = EVERY.to_string();
    let mut args = encode_args(input, &out);
    args.extend_from_slice(&["--checkpoint-every", &every, "--checkpoint-dir", &ckdir]);
    args.extend_from_slice(extra);
    let (ok, _, _) = run(&args, &[("FEVES_CRASH_AT", crash_at)]);
    assert!(!ok, "encode with FEVES_CRASH_AT={crash_at} must die");

    let mut rargs = vec!["resume", ckdir.as_str()];
    rargs.extend_from_slice(extra);
    let (ok, stdout, stderr) = run(&rargs, &[]);
    assert!(
        ok,
        "resume after {crash_at} failed\nstdout:\n{stdout}\nstderr:\n{stderr}"
    );
    assert!(
        stderr.contains("resuming from"),
        "resume banner missing:\n{stderr}"
    );
    fs::read(&out).unwrap()
}

/// A checkpointed encode over the seeded input in a fresh `scratch(name)`:
/// the paths the CLI is given.
struct Job {
    dir: PathBuf,
    input: String,
    out: String,
    ckdir: String,
}

impl Job {
    fn new(name: &str) -> Job {
        let dir = scratch(name);
        write_input(&dir.join("in.y4m"), 0x5EED, N_FRAMES);
        let path = |file: &str| dir.join(file).to_str().unwrap().to_string();
        let (input, out, ckdir) = (path("in.y4m"), path("out.y4m"), path("out.y4m.ckpt"));
        Job {
            dir,
            input,
            out,
            ckdir,
        }
    }

    /// `encode` of the job, with a checkpoint every two frames.
    fn args(&self) -> Vec<&str> {
        let mut args = encode_args(&self.input, &self.out);
        args.extend_from_slice(&["--checkpoint-every", "2", "--checkpoint-dir", &self.ckdir]);
        args
    }

    /// Run the encode, aborted at `crash_at` (`FEVES_CRASH_AT`).
    fn killed_at(&self, crash_at: &str) {
        let (ok, _, _) = run(&self.args(), &[("FEVES_CRASH_AT", crash_at)]);
        assert!(!ok, "encode with FEVES_CRASH_AT={crash_at} must die");
    }
}

/// Kill the encode before each frame from 2 on and resume it; every
/// recovery must equal the uninterrupted lockstep run. The first checkpoint
/// lands after frame 1 (EVERY = 2), so any later kill is recoverable.
fn every_frame_kill_recovers(name: &str, extra: &[&str]) {
    let Job { dir, input, .. } = &Job::new(name);
    let want = baseline(dir, input);
    for k in 2..N_FRAMES {
        let got = crash_then_resume(dir, input, &format!("frame@{k}"), extra);
        assert_eq!(
            got, want,
            "{name} recovery differs from the uninterrupted lockstep run (killed before frame {k})"
        );
    }
}

#[test]
fn kill_before_every_frame_resume_is_bit_identical() {
    every_frame_kill_recovers("frames", &[]);
}

#[test]
fn pipelined_kill_before_every_frame_resume_is_bit_identical() {
    // The pipeline overlaps frame generations, but checkpoints commit only
    // at quiesced boundaries: a pipelined kill recovers to the same
    // lockstep bytes.
    every_frame_kill_recovers("pipeframes", &["--pipeline", "on"]);
}

#[test]
fn kill_before_first_checkpoint_is_a_typed_error() {
    // Dying before any checkpoint was committed leaves nothing to resume —
    // that must be a one-line typed error, not a panic or a usage banner.
    let job = Job::new("first");
    job.killed_at("frame@1");
    let (ok, _, stderr) = run(&["resume", &job.ckdir], &[]);
    assert!(!ok, "resume with no committed checkpoint must fail");
    assert!(stderr.contains("error:"), "typed error line:\n{stderr}");
    assert!(!stderr.contains("usage:"), "not a usage error:\n{stderr}");
}

#[test]
fn kill_inside_the_checkpoint_writer_itself() {
    // The checkpoint protocol's own windows: mid temp-file write, after the
    // temp fsync before the rename, and after the rename before the dir
    // fsync. Each must recover (from the previous generation for the first
    // two, the just-renamed one for the third) bit-identically.
    let Job { dir, input, .. } = &Job::new("ckptwin");
    let want = baseline(dir, input);
    for point in ["ckpt-mid-write@2", "ckpt-temp@2", "ckpt-rename@2"] {
        let got = crash_then_resume(dir, input, point, &[]);
        assert_eq!(got, want, "recovered output differs after {point}");
        // Recovery + subsequent checkpoints must also have swept any torn
        // temp file the crash left behind.
        let out = dir.join(format!("out-{}.y4m", point.replace(['@', '-'], "_")));
        let ckdir = PathBuf::from(format!("{}.ckpt", out.display()));
        let leftovers: Vec<_> = fs::read_dir(&ckdir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|n| n.ends_with(".tmp"))
            .collect();
        assert!(
            leftovers.is_empty(),
            "torn temp files survived: {leftovers:?}"
        );
    }
}

#[test]
fn corrupted_newest_generation_falls_back_to_previous() {
    let job = Job::new("fallback");
    let want = baseline(&job.dir, &job.input);
    // Die before frame 6: generations ckpt-000004 and ckpt-000006 survive
    // (retention keeps two).
    job.killed_at("frame@6");

    // Bit-rot the newest generation.
    let mut gens: Vec<_> = fs::read_dir(&job.ckdir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "ckpt"))
        .collect();
    gens.sort();
    assert!(
        gens.len() >= 2,
        "need two generations to test fallback: {gens:?}"
    );
    let newest = gens.last().unwrap().clone();
    let mut bytes = fs::read(&newest).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    fs::write(&newest, bytes).unwrap();

    let (ok, _, stderr) = run(&["resume", &job.ckdir], &[]);
    assert!(ok, "fallback resume failed:\n{stderr}");
    assert!(
        stderr.contains("warning:"),
        "skipped generation must be reported:\n{stderr}"
    );
    assert_eq!(
        fs::read(&job.out).unwrap(),
        want,
        "fallback recovery diverged"
    );
}

#[test]
fn all_generations_corrupted_is_a_typed_rejection() {
    let job = Job::new("allcorrupt");
    job.killed_at("frame@6");

    for e in fs::read_dir(&job.ckdir).unwrap() {
        let p = e.unwrap().path();
        if p.extension().is_some_and(|x| x == "ckpt") {
            let mut b = fs::read(&p).unwrap();
            let mid = b.len() / 2;
            b[mid] ^= 0xFF;
            fs::write(&p, b).unwrap();
        }
    }
    let (ok, _, stderr) = run(&["resume", &job.ckdir], &[]);
    assert!(!ok, "resume over all-corrupt generations must fail");
    assert!(
        stderr.contains("error:") && stderr.contains("checkpoint"),
        "typed checkpoint error expected:\n{stderr}"
    );
    assert!(!stderr.contains("usage:"), "runtime, not usage:\n{stderr}");
}

#[test]
fn changed_input_is_rejected_as_stale() {
    let job = Job::new("stale");
    job.killed_at("frame@5");

    // Replace the input with a different (same-shape) sequence.
    write_input(Path::new(&job.input), 0xBAD5EED, N_FRAMES);
    let (ok, _, stderr) = run(&["resume", &job.ckdir], &[]);
    assert!(!ok, "resume over a changed input must fail");
    assert!(
        stderr.contains("error:") && stderr.contains("changed"),
        "stale-input rejection expected:\n{stderr}"
    );
}

#[test]
fn rejected_checkpoints_keep_their_exact_error_text() {
    // Each way the world can stop matching a checkpoint: `feves resume`
    // must refuse with exit 1 and exactly one typed `error:` line after the
    // banner — and must not have touched the output.
    type Mutate = fn(&Path, &Path, u64);
    type Expect = fn(&str, &str, u64, u32, &[u8]) -> String;
    let cases: [(&str, Mutate, Expect); 3] = [
        (
            "input",
            |input, _, _| write_input(input, 0xBAD5EED, N_FRAMES),
            |input, _, _, _, _| {
                format!("checkpoint stale: input {input} changed since the checkpoint was taken")
            },
        ),
        (
            "short",
            |_, out, committed| {
                let bytes = fs::read(out).unwrap();
                fs::write(out, &bytes[..committed as usize - 1]).unwrap();
            },
            |_, out, committed, _, _| {
                format!(
                    "checkpoint stale: output {out} is {} bytes, shorter than the {committed} \
                     committed by the checkpoint",
                    committed - 1
                )
            },
        ),
        (
            "rot",
            |_, out, committed| {
                let mut bytes = fs::read(out).unwrap();
                bytes[committed as usize / 2] ^= 0x10;
                fs::write(out, bytes).unwrap();
            },
            |_, out, committed, recorded, now| {
                format!(
                    "checkpoint corrupt: output {out}: committed prefix hashes to {:08x}, \
                     checkpoint recorded {recorded:08x} — the artifact rotted on disk; \
                     re-encode instead of resuming",
                    feves::ft::ckpt::crc32(&now[..committed as usize])
                )
            },
        ),
    ];
    for (tag, mutate, expected) in cases {
        let job = Job::new(&format!("reject-{tag}"));
        job.killed_at("frame@5");
        let (input_s, out_s, ckdir) = (&job.input, &job.out, &job.ckdir);
        let (input, out) = (Path::new(input_s), Path::new(out_s));
        let (_, ctx, _, _) = feves::core::load_latest(Path::new(ckdir)).unwrap();
        assert_eq!(ctx.frames_done, 4);

        mutate(input, out, ctx.out_bytes);
        let before = fs::read(out).unwrap();
        let got = Command::new(feves_bin())
            .args(["resume", ckdir])
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&got.stderr);
        assert_eq!(got.status.code(), Some(1), "{tag}:\n{stderr}");
        let want = expected(input_s, out_s, ctx.out_bytes, ctx.out_crc, &before);
        let lines: Vec<&str> = stderr.lines().collect();
        assert_eq!(lines.len(), 2, "{tag}: banner + one error line:\n{stderr}");
        assert!(lines[0].starts_with("resuming from "), "{tag}:\n{stderr}");
        assert_eq!(lines[1], format!("error: {want}"), "{tag}");
        assert_eq!(fs::read(out).unwrap(), before, "{tag}: output was touched");
    }
}

#[test]
fn real_sigkill_mid_encode_recovers() {
    // A genuine out-of-band kill (no abort hook): watch the child's stdout
    // until a few frames are done, then SIGKILL it.
    let job = Job::new("sigkill");
    let want = baseline(&job.dir, &job.input);
    let (out, ckdir) = (&job.out, &job.ckdir);
    let mut child = Command::new(feves_bin())
        .args(job.args())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn feves");
    {
        let stdout = child.stdout.take().unwrap();
        let mut lines = std::io::BufReader::new(stdout).lines();
        let mut seen = 0;
        while let Some(Ok(line)) = lines.next() {
            if line.contains("frame") {
                seen += 1;
            }
            if seen >= 5 {
                break;
            }
        }
        child.kill().expect("SIGKILL the encoder");
    }
    let status = child.wait().unwrap();
    assert!(!status.success());

    let (ok, _, stderr) = run(&["resume", ckdir], &[]);
    assert!(ok, "resume after SIGKILL failed:\n{stderr}");
    assert_eq!(
        fs::read(out).unwrap(),
        want,
        "SIGKILL recovery must be bit-identical"
    );
}

#[test]
fn chaos_seed_randomizes_the_kill_point() {
    // CI drives this with FEVES_FAULT_SEED=1..3; the seed picks the kill
    // frame and whether to also tear the checkpoint writer. Any seed must
    // recover bit-identically — and leave a flight log whose resume marker
    // records the restart.
    let seed = fault_seed();
    // xorshift64 — deterministic per seed, no external RNG needed here.
    let mut x = seed.wrapping_mul(0x9E3779B97F4A7C15).max(1);
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let kill_frame = 2 + (next() as usize % (N_FRAMES - 2));
    let crash_at = if next() % 3 == 0 {
        "ckpt-mid-write@2".to_string()
    } else {
        format!("frame@{kill_frame}")
    };

    let dir = scratch(&format!("seed{seed}"));
    let input = dir.join("in.y4m");
    write_input(&input, 0x5EED ^ seed, N_FRAMES);
    let input = input.to_str().unwrap();
    let want = baseline(&dir, input);
    let flight = dir.join("flight.jsonl");
    let flight_arg = flight.to_str().unwrap().to_string();
    let extra = ["--flight-out", flight_arg.as_str()];
    let got = crash_then_resume(&dir, input, &crash_at, &extra);
    assert_eq!(got, want, "seed {seed} ({crash_at}) recovery diverged");

    // The recovered flight log marks where the session restarted and still
    // parses through the report pipeline.
    let text = fs::read_to_string(&flight).unwrap();
    assert!(
        text.contains("\"resume_marker\":"),
        "flight log must record the resume point:\n{text}"
    );
    let (ok, stdout, stderr) = run(&["report", flight_arg.as_str()], &[]);
    assert!(ok, "report over recovered flight log failed:\n{stderr}");
    assert!(!stdout.is_empty());

    // CI uploads the recovered flight log as a build artifact.
    if let Some(dest) = fault_artifact() {
        let name = format!("recovered-flight-seed{seed}.jsonl");
        fs::copy(&flight, dest.join(name)).expect("export recovered flight log");
    }
}

#[test]
fn sigterm_mid_encode_checkpoints_and_resumes_bit_exact() {
    // Graceful preemption, as a process supervisor would do it: TERM (not
    // KILL) a checkpoint-armed encode mid-run. The encoder must commit an
    // off-cadence checkpoint at the frame boundary, flush it atomically,
    // and exit 0 — and `feves resume` must then complete the session
    // bit-identically to an uninterrupted run.
    let job = Job::new("sigterm");
    let want = baseline(&job.dir, &job.input);
    let (out, ckdir) = (&job.out, &job.ckdir);
    let mut child = Command::new(feves_bin())
        .args(job.args())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn feves");
    let stdout = child.stdout.take().unwrap();
    let mut lines = std::io::BufReader::new(stdout).lines();
    let mut seen = 0;
    while let Some(Ok(line)) = lines.next() {
        if line.contains("frame") {
            seen += 1;
        }
        if seen >= 2 {
            break;
        }
    }
    let term = Command::new("kill")
        .args(["-TERM", &child.id().to_string()])
        .status()
        .expect("send SIGTERM");
    assert!(term.success());
    // Keep draining stdout until the child exits — closing the pipe early
    // would fault the encoder's own progress prints.
    for _ in lines.by_ref() {}
    let output = child.wait_with_output().unwrap();
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(
        output.status.success(),
        "graceful TERM must exit 0, got {}:\n{stderr}",
        output.status
    );
    assert!(
        stderr.contains("interrupted: checkpoint committed"),
        "preemption banner missing:\n{stderr}"
    );

    let (ok, _, stderr) = run(&["resume", ckdir], &[]);
    assert!(ok, "resume after SIGTERM failed:\n{stderr}");
    assert_eq!(
        fs::read(out).unwrap(),
        want,
        "SIGTERM preempt + resume must be bit-identical"
    );
}

/// The writer, pinned by the same fixture: decoding the previous build's
/// checkpoint and encoding it again gives its bytes back (it holds DIST and
/// PEND but no RATE; `core::ckpt`'s digest pins cover RATE).
#[test]
fn a_checkpoint_written_by_the_previous_build_re_encodes_to_its_own_bytes() {
    use feves::core::ckpt::{decode_checkpoint, encode_checkpoint};
    let path =
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ckpt_v3_pr15/ckpt-000008.ckpt");
    let bytes = fs::read(path).unwrap();
    let (ctx, state) =
        decode_checkpoint(&feves::ft::CheckpointBlob::from_bytes(&bytes).unwrap()).unwrap();
    assert!(state.prev_dist.is_some() && state.recon_pending.is_some() && state.rate.is_none());
    let again = encode_checkpoint(&ctx, &state).to_bytes();
    assert_eq!(again.len(), 20_458);
    assert!(
        again == bytes,
        "re-encoded checkpoint differs from the fixture"
    );
}

/// Cross-version: `tests/fixtures/ckpt_v3_pr15/ckpt-000008.ckpt` was
/// written by the release binary of the commit before sessions streamed
/// their input — `feves encode in.y4m out.y4m --sa 8 --refs 2 --pipeline on
/// --checkpoint-every 4`, killed with `FEVES_CRASH_AT=frame@9`. The format
/// is still v3 and the input is still pinned by its whole-file fingerprint,
/// so this build must validate it (input fingerprint, frame count, CRC of
/// the committed artifact prefix), seek to frame 8 and finish the artifact
/// byte-identical to its own uninterrupted run.
#[test]
fn a_checkpoint_written_by_the_previous_build_resumes_bit_exact() {
    let dir = scratch("cross-version");
    // The clip the checkpoint was taken over: 12 frames of 64x64, pure
    // arithmetic so that it can be rebuilt here byte for byte.
    let (w, h, n) = (64usize, 64usize, 12usize);
    let mut input = b"YUV4MPEG2 W64 H64 F25:1 Ip A1:1 C420jpeg\n".to_vec();
    for i in 0..n {
        input.extend_from_slice(b"FRAME\n");
        for y in 0..h {
            input.extend((0..w).map(|x| (((((x + 3 * i) * 5) ^ ((y + i) * 9)) >> 1) & 0xFF) as u8));
        }
        for _ in 0..h / 2 {
            input.extend((0..w / 2).map(|x| (128 + ((x + i) & 31)) as u8));
        }
        for y in 0..h / 2 {
            input.extend((0..w / 2).map(|_| (96 + ((y + 2 * i) & 63)) as u8));
        }
    }
    fs::write(dir.join("in.y4m"), input).unwrap();
    // The checkpoint names its files as the killed run was given them:
    // relative, so everything runs inside `dir`.
    let feves = |args: &[&str]| {
        let out = Command::new(feves_bin())
            .args(args)
            .current_dir(&dir)
            .output()
            .expect("spawn feves binary");
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        assert!(out.status.success(), "feves {args:?} failed:\n{stderr}");
        stderr
    };
    let job = ["--sa", "8", "--refs", "2", "--pipeline", "on"];
    feves(&[&["encode", "in.y4m", "ref.y4m"][..], &job[..]].concat());
    let reference = fs::read(dir.join("ref.y4m")).unwrap();

    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/ckpt_v3_pr15");
    let (ctx, _state) =
        feves::core::load_checkpoint_file(&fixture.join("ckpt-000008.ckpt")).unwrap();
    assert_eq!((ctx.frames_done, ctx.n_frames, ctx.pipeline), (8, n, true));
    fs::create_dir(dir.join("out.y4m.ckpt")).unwrap();
    fs::copy(
        fixture.join("ckpt-000008.ckpt"),
        dir.join("out.y4m.ckpt/ckpt-000008.ckpt"),
    )
    .unwrap();
    // What the killed run left of the artifact: the committed eight frames
    // and the torn start of the ninth.
    let torn = ctx.out_bytes as usize + 1000;
    fs::write(dir.join("out.y4m"), &reference[..torn]).unwrap();

    let stderr = feves(&["resume", "out.y4m.ckpt"]);
    assert!(stderr.contains("frame 8/12 of in.y4m"), "{stderr}");
    assert!(
        fs::read(dir.join("out.y4m")).unwrap() == reference,
        "resumed artifact differs from this build's uninterrupted run"
    );
}
