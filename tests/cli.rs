//! Integration tests of the `feves` CLI binary (spawned as a subprocess,
//! the way a user drives it).

mod common;

use common::{feves_bin, run};
use serde::Value;
use std::process::Command;

/// Write `frames` frames of the tiny synthetic QCIF sequence to `path`.
fn write_qcif_input(path: &std::path::Path, frames: usize) {
    common::write_y4m(path, feves::video::SynthConfig::tiny_test(), frames);
}

#[test]
fn platforms_lists_the_paper_systems() {
    let (ok, stdout, _) = run(&["platforms"]);
    assert!(ok);
    for name in ["SysHK", "SysNF", "SysNFF", "GPU_K", "CPU_N"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
    assert!(stdout.contains("3072 MiB"), "Kepler memory missing");
}

#[test]
fn simulate_reports_realtime_verdict() {
    let (ok, stdout, _) = run(&[
        "simulate",
        "--platform",
        "syshk",
        "--sa",
        "32",
        "--refs",
        "1",
        "--frames",
        "6",
    ]);
    assert!(ok);
    assert!(
        stdout.contains("REAL-TIME"),
        "expected real-time verdict:\n{stdout}"
    );
    assert!(stdout.contains("steady state"));
}

#[test]
fn trace_prints_gantt() {
    let (ok, stdout, _) = run(&["trace", "--platform", "sysnff", "--frames", "4"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("tau_tot"));
    assert!(stdout.contains("legend:"));
}

/// The Gantt chart, byte for byte. `--kernels fast` pins the CPU profiles,
/// which are rescaled per kernel family.
#[test]
fn trace_gantt_matches_golden() {
    let mut actual = String::new();
    for platform in [&["syshk"][..], &["sysnff", "--refs", "4"], &["gpu-f"]] {
        let mut args = vec!["trace", "--kernels", "fast", "--platform"];
        args.extend(platform);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "{stderr}");
        actual.push_str(&stdout);
    }
    let golden =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/trace.gantt.txt");
    assert_eq!(actual, std::fs::read_to_string(golden).unwrap());
}

/// `feves trace --perfetto` without a log exports the simulated frame: one
/// named track per Gantt row, one `X` event per task, named by its label
/// and on its device's track, and the phases meeting at τ1, τ2 and τtot.
#[test]
fn trace_perfetto_exports_the_simulated_frame() {
    let dir = common::scratch("trace_perfetto");
    let out = dir.join("frame.json");
    let args = ["trace", "--kernels", "fast", "--platform", "sysnff"];
    let (ok, gantt, _) = run(&args);
    assert!(ok);
    let (ok, _, stderr) = run(&[&args[..], &["--perfetto", out.to_str().unwrap()]].concat());
    assert!(ok, "{stderr}");
    let events = common::perfetto_events(&std::fs::read_to_string(&out).unwrap());
    let text = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).unwrap_or("").to_string();
    let num = |e: &Value, k: &str| e.get(k).and_then(Value::as_f64).unwrap();
    let tid = |e: &Value| e.get("tid").and_then(Value::as_u64).unwrap();

    // Tracks: the Gantt rows, in order, after the five fixed ones.
    let rows: Vec<String> = (gantt.lines().skip(1))
        .take_while(|l| !l.starts_with("legend"))
        .map(|l| l[..9].trim_start().to_string())
        .collect();
    let mut tracks = std::collections::BTreeMap::new();
    for e in events.iter().filter(|e| text(e, "name") == "thread_name") {
        tracks.insert(tid(e), e.get("args").map(|a| text(a, "name")).unwrap());
    }
    assert_eq!(tracks.values().skip(5).cloned().collect::<Vec<_>>(), rows);

    // Tasks: one event per label, on a track of the device the label names.
    let x: Vec<&Value> = events.iter().filter(|e| text(e, "ph") == "X").collect();
    let engines = ["compute", "interp", "h2d", "d2h"];
    let tasks: Vec<&&Value> = (x.iter())
        .filter(|e| engines.contains(&text(e, "cat").as_str()))
        .collect();
    let mut labels: Vec<String> = tasks.iter().map(|e| text(e, "name")).collect();
    labels.sort();
    labels.dedup();
    assert_eq!(labels.len(), tasks.len(), "one event per task");
    for e in &tasks {
        let (label, track) = (text(e, "name"), &tracks[&tid(e)]);
        let device = track.split(' ').next().unwrap().trim_start_matches("dev");
        let on = |stem: &str| label.contains(&format!("{stem}{device}"));
        assert!(on("dev") || on("core"), "{label} on {track}");
    }
    for stem in [
        "ME dev0",
        "INT dev1",
        "SME core2",
        "CF→ME dev0",
        "SF(RF)→host dev1",
    ] {
        assert!(
            labels.iter().any(|l| l.starts_with(stem)),
            "{stem}: {labels:?}"
        );
    }

    // Sync points: phase1 ends at τ1 where phase2 starts, phase2 at τ2
    // where the tail starts, and the tail and the frame at τtot.
    let span = |name: &str| {
        let e = x.iter().find(|e| text(e, "name") == name).unwrap();
        (num(e, "ts"), num(e, "ts") + num(e, "dur"))
    };
    let (frame, p1, p2, tail) = (span("frame"), span("phase1"), span("phase2"), span("tail"));
    assert_eq!([p1.0, p2.0, tail.0, tail.1], [frame.0, p1.1, p2.1, frame.1]);
    let ms = |us: f64| format!("{:.2} ms", us / 1e3);
    let taus = format!(
        "tau1 {} | tau2 {} | tau_tot {}",
        ms(p1.1),
        ms(p2.1),
        ms(frame.1)
    );
    assert!(
        gantt.lines().next().unwrap().ends_with(&taus),
        "{taus}\n{gantt}"
    );
}

/// A trace log with a non-finite number is refused with one `error:` line,
/// not a panic (`--perfetto`) or a report of `inf` and `NaN`.
#[test]
fn trace_log_with_a_non_finite_number_is_an_error() {
    let dir = common::scratch("trace_inf");
    let log = dir.join("inf.jsonl");
    std::fs::write(
        &log,
        concat!(
            "{\"schema\":\"feves-trace/1\"}\n",
            r#"{"span":{"trace_id":1,"span_id":2,"parent":null,"name":"job:a","cat":"job","#,
            r#""start_us":0,"dur_us":1e999,"devices":[],"args":[]}}"#,
            "\n"
        ),
    )
    .unwrap();
    let out = dir.join("out.json");
    for extra in [&[][..], &["--perfetto", out.to_str().unwrap()]] {
        let args = [&["trace", log.to_str().unwrap()][..], extra].concat();
        let o = Command::new(feves_bin()).args(&args).output().unwrap();
        let stderr = String::from_utf8_lossy(&o.stderr);
        assert_eq!(o.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(
            stderr.starts_with("error: ") && stderr.lines().count() == 1,
            "{stderr}"
        );
        assert!(
            stderr.contains("line 2") && stderr.contains("non-finite"),
            "{stderr}"
        );
    }
    assert!(!out.exists());
}

#[test]
fn bad_arguments_fail_with_usage() {
    let (ok, _, stderr) = run(&["simulate", "--platform", "nonsense"]);
    assert!(!ok);
    assert!(stderr.contains("unknown platform"));
    let (ok2, _, stderr2) = run(&["frobnicate"]);
    assert!(!ok2);
    assert!(stderr2.contains("usage:"));
}

#[test]
fn encode_roundtrips_a_y4m_file() {
    // Generate a tiny input with the library, encode it via the CLI.
    let dir = std::env::temp_dir().join("feves_cli_test");
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.y4m");
    let output = dir.join("out.y4m");
    write_qcif_input(&input, 3);

    let (ok, stdout, stderr) = run(&[
        "encode",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--sa",
        "16",
        "--refs",
        "1",
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stdout.contains("PSNR-Y"));
    assert!(output.exists(), "reconstruction file written");
    // The reconstruction parses as Y4M with the right frame count.
    let mut r = feves::video::y4m::Y4mReader::new(std::io::BufReader::new(
        std::fs::File::open(&output).unwrap(),
    ))
    .unwrap();
    assert_eq!(r.read_all().unwrap().len(), 3);
}

/// `feves encode … | head -1`: the reader of stdout is gone before the first
/// line is printed. The progress lines are advisory — the encode finishes,
/// exits 0, and leaves the artifact it leaves with stdout open (it used to
/// panic in `println!`, exit 101, and leave a short file that verified).
#[cfg(unix)]
#[test]
fn a_closed_stdout_does_not_stop_the_encode() {
    use std::process::Stdio;
    let dir = common::scratch("closed_stdout");
    let input = dir.join("in.y4m");
    write_qcif_input(&input, 3);
    let encode = |name: &str, stdout: Stdio| {
        let output = dir.join(name);
        let out = Command::new(feves_bin())
            .args(["encode", input.to_str().unwrap(), output.to_str().unwrap()])
            .args(["--sa", "16", "--refs", "1"])
            .stdout(stdout)
            .stderr(Stdio::piped())
            .output()
            .unwrap();
        let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
        (
            out.status.code(),
            stderr,
            std::fs::read(&output).unwrap_or_default(),
        )
    };
    // The write end of a pipe whose only reader has exited: a child that
    // never reads its stdin, waited for.
    let mut reader = Command::new(feves_bin())
        .arg("platforms")
        .stdin(Stdio::piped())
        .stdout(Stdio::null())
        .spawn()
        .unwrap();
    let write_end = reader.stdin.take().unwrap();
    assert!(reader.wait().unwrap().success());

    let (code, stderr, closed) = encode("closed.y4m", write_end.into());
    assert_eq!(code, Some(0), "{stderr}");
    assert!(!stderr.contains("panicked"), "{stderr}");
    let (code, stderr, open) = encode("open.y4m", Stdio::null());
    assert_eq!(code, Some(0), "{stderr}");
    assert!(closed == open, "the artifact depends on who reads stdout");
    let frames = feves::video::y4m::Y4mReader::new(&closed[..])
        .unwrap()
        .read_all()
        .unwrap();
    assert_eq!(frames.len(), 3);
}

/// Every CPU core of SysNF panics in inter frame 2: the encode keeps one
/// core, finishes, and writes the fault-free artifact.
#[test]
fn all_cores_panicking_still_writes_the_fault_free_artifact() {
    let dir = std::env::temp_dir().join("feves_cli_all_cores");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.y4m");
    write_qcif_input(&input, 5);
    let encode = |name: &str, faults: &[&str]| {
        let output = dir.join(name);
        let mut args = vec!["encode", input.to_str().unwrap(), output.to_str().unwrap()];
        args.extend(["--platform", "SysNF", "--sa", "16", "--refs", "2"]);
        args.extend(faults.iter().flat_map(|f| ["--inject-fault", f]));
        let (code, _, stderr) = run_code(&args);
        assert_eq!(code, Some(0), "{name}: {stderr}");
        std::fs::read(&output).unwrap()
    };
    let clean = encode("clean.y4m", &[]);
    let faulty = encode(
        "faulty.y4m",
        &["1:panic@2", "2:panic@2", "3:panic@2", "4:panic@2"],
    );
    assert!(clean == faulty, "the artifact moved under the panics");
}

#[test]
fn inject_fault_recovers_and_reports_counters() {
    let (ok, stdout, stderr) = run(&[
        "simulate",
        "--platform",
        "sysnff",
        "--frames",
        "10",
        "--inject-fault",
        "0:death@4",
    ]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(
        stdout.contains("faults:") && stdout.contains("re-solve"),
        "fault summary missing:\n{stdout}"
    );
    assert!(stdout.contains("1 injected"), "counter missing:\n{stdout}");

    // A malformed spec fails cleanly with the grammar in the message.
    let (ok2, _, stderr2) = run(&["simulate", "--inject-fault", "0:frazzle@4"]);
    assert!(!ok2);
    assert!(
        stderr2.contains("fault"),
        "parse error surfaced:\n{stderr2}"
    );
}

#[test]
fn export_platform_roundtrips_through_platform_file() {
    let dir = std::env::temp_dir().join("feves_cli_platform");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("hk.json");
    let (ok, json, _) = run(&["export-platform", "sysnff"]);
    assert!(ok);
    std::fs::write(&path, &json).unwrap();
    let (ok2, stdout, stderr) = run(&[
        "simulate",
        "--platform-file",
        path.to_str().unwrap(),
        "--frames",
        "6",
    ]);
    assert!(ok2, "{stderr}");
    assert!(stdout.contains("SysNFF"), "loaded platform name:\n{stdout}");

    // A corrupted platform file fails cleanly.
    std::fs::write(&path, "{broken").unwrap();
    let (ok3, _, stderr3) = run(&["simulate", "--platform-file", path.to_str().unwrap()]);
    assert!(!ok3);
    assert!(stderr3.contains("error"));
}

#[test]
fn flight_report_and_compare_workflow() {
    let dir = std::env::temp_dir().join("feves_cli_flight");
    std::fs::create_dir_all(&dir).unwrap();
    let flight = dir.join("flight.jsonl");
    let html = dir.join("report.html");

    // Record a flight log from a short simulation.
    let (ok, _, stderr) = run(&[
        "simulate",
        "--frames",
        "8",
        "--flight-out",
        flight.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("flight log written"), "{stderr}");
    let text = std::fs::read_to_string(&flight).unwrap();
    assert_eq!(text.lines().count(), 8, "one JSONL record per inter frame");

    // Text audit report.
    let (ok, stdout, _) = run(&["report", flight.to_str().unwrap()]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("flight audit"), "{stdout}");
    assert!(stdout.contains("dev0"), "{stdout}");

    // Self-contained HTML report.
    let (ok, _, stderr) = run(&[
        "report",
        flight.to_str().unwrap(),
        "--html",
        "--out",
        html.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let page = std::fs::read_to_string(&html).unwrap();
    assert!(
        page.contains("<svg") && page.contains("</html>"),
        "not an HTML report"
    );
    assert!(
        !page.contains("http://") && !page.contains("https://"),
        "must be self-contained"
    );

    // Comparing a flight log against itself passes (exit 0).
    let (ok, stdout, _) = run(&[
        "compare",
        flight.to_str().unwrap(),
        flight.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("PASS"), "{stdout}");
}

#[test]
fn compare_gates_on_injected_regression() {
    // Synthesize a >=10 % tau_tot regression into a copied e2e summary: the
    // gate must fail with a non-zero exit and name the metric — and must
    // NOT print the usage banner (a regression is not a CLI error).
    let dir = std::env::temp_dir().join("feves_cli_compare");
    std::fs::create_dir_all(&dir).unwrap();
    let base = dir.join("base.json");
    let slow = dir.join("slow.json");
    std::fs::write(
        &base,
        r#"{"resolution":"1080p","frames":30,"scalar_ms":100.0,"fast_ms":50.0,"speedup":2.0,"outputs_identical":true}"#,
    )
    .unwrap();
    std::fs::write(
        &slow,
        r#"{"resolution":"1080p","frames":30,"scalar_ms":100.0,"fast_ms":56.0,"speedup":1.8,"outputs_identical":true}"#,
    )
    .unwrap();

    let (ok, stdout, stderr) = run(&[
        "compare",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--threshold",
        "0.10",
    ]);
    assert!(
        !ok,
        "a 12% fast_ms regression must fail the gate:\n{stdout}"
    );
    assert!(
        stdout.contains("REGRESSION") && stdout.contains("e2e.fast_ms"),
        "{stdout}"
    );
    assert!(stdout.contains("FAIL"), "{stdout}");
    assert!(
        !stderr.contains("usage:"),
        "gate failure is not a usage error:\n{stderr}"
    );

    // A generous threshold lets the same pair through.
    let (ok, stdout, _) = run(&[
        "compare",
        base.to_str().unwrap(),
        slow.to_str().unwrap(),
        "--threshold",
        "0.5",
    ]);
    assert!(ok, "{stdout}");

    // Unreadable input is a runtime error: one line, non-zero exit, no
    // usage banner (the invocation itself was well-formed).
    let (ok, _, stderr) = run(&["compare", "/nonexistent.json", base.to_str().unwrap()]);
    assert!(!ok);
    assert!(stderr.contains("error"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");
}

/// Like [`run`], but surfacing the raw exit code.
fn run_code(args: &[&str]) -> (Option<i32>, String, String) {
    let out = Command::new(feves_bin())
        .args(args)
        .output()
        .expect("spawn feves binary");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn exit_codes_distinguish_usage_from_runtime_failures() {
    // Usage errors (malformed invocation): exit 2 with the banner.
    let (code, _, stderr) = run_code(&["simulate", "--bogus-flag"]);
    assert_eq!(code, Some(2), "unknown flag is a usage error:\n{stderr}");
    assert!(
        stderr.contains("error: unknown option --bogus-flag"),
        "{stderr}"
    );
    assert!(stderr.contains("usage:"), "{stderr}");

    let (code, _, stderr) = run_code(&[]);
    assert_eq!(code, Some(2), "no command is a usage error");
    assert!(stderr.contains("usage:"), "{stderr}");

    let (code, _, stderr) = run_code(&["encode"]);
    assert_eq!(code, Some(2), "missing positional is a usage error");
    assert!(stderr.contains("usage:"), "{stderr}");

    // Runtime errors (well-formed invocation, failing work): exit 1 with a
    // single `error:` line and NO banner.
    for args in [
        &["encode", "/nonexistent/input.y4m"][..],
        &["resume", "/nonexistent/dir.ckpt"][..],
        &["report", "/nonexistent/flight.jsonl"][..],
    ] {
        let (code, _, stderr) = run_code(args);
        assert_eq!(code, Some(1), "{args:?}:\n{stderr}");
        assert_eq!(
            stderr.lines().count(),
            1,
            "exactly one diagnostic line for {args:?}:\n{stderr}"
        );
        assert!(stderr.starts_with("error: "), "{args:?}:\n{stderr}");
        assert!(!stderr.contains("usage:"), "{args:?}:\n{stderr}");
    }
}

#[test]
fn zero_frame_input_is_one_error_line_and_no_artifact() {
    let dir = std::env::temp_dir().join("feves_cli_empty");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("empty.y4m");
    let output = dir.join("out.y4m");
    std::fs::write(&input, "YUV4MPEG2 W176 H144 F25:1 Ip A1:1 C420jpeg\n").unwrap();
    let (code, stdout, stderr) = run_code(&[
        "encode",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--checkpoint-every",
        "2",
    ]);
    assert_eq!(code, Some(1), "an empty input is a runtime failure");
    assert_eq!(stderr, format!("error: {}: empty input\n", input.display()));
    assert!(!stdout.contains("wrote"), "{stdout}");
    assert!(!output.exists(), "no artifact may be left behind");
    assert!(!dir.join("out.y4m.ckpt").exists());
}

#[test]
fn checkpointed_encode_then_resume_completes_the_tail() {
    let dir = std::env::temp_dir().join("feves_cli_ckpt");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.y4m");
    let output = dir.join("out.y4m");
    let ckdir = dir.join("ckpts");
    write_qcif_input(&input, 6);

    // A full (uninterrupted) checkpointed encode: generations appear, and
    // retention caps them at --checkpoint-keep.
    let (ok, _, stderr) = run(&[
        "encode",
        input.to_str().unwrap(),
        output.to_str().unwrap(),
        "--sa",
        "16",
        "--checkpoint-every",
        "2",
        "--checkpoint-keep",
        "1",
        "--checkpoint-dir",
        ckdir.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("checkpoint"), "{stderr}");
    let gens: Vec<_> = std::fs::read_dir(&ckdir)
        .unwrap()
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .filter(|n| n.ends_with(".ckpt"))
        .collect();
    assert_eq!(
        gens.len(),
        1,
        "retention must prune to --checkpoint-keep: {gens:?}"
    );
    let full = std::fs::read(&output).unwrap();

    // Resuming the *completed* session from its last generation re-encodes
    // the tail and reproduces the very same output file.
    let (ok, stdout, stderr) = run(&["resume", ckdir.to_str().unwrap()]);
    assert!(ok, "stdout:\n{stdout}\nstderr:\n{stderr}");
    assert!(stderr.contains("resuming from"), "{stderr}");
    assert!(stdout.contains("PSNR-Y"), "{stdout}");
    assert_eq!(
        std::fs::read(&output).unwrap(),
        full,
        "resume of a finished session must reproduce the same bytes"
    );
}

/// The host's width must not reach anything `feves encode` writes: pinned
/// to one core (`codec::par` width 1, the caller the only worker) and
/// unrestricted, the artifact, every checkpoint generation (encoder state
/// and fault counters included), the flight log and stdout are
/// byte-identical — across an injected kernel panic too.
#[test]
fn one_core_and_all_cores_write_identical_files() {
    let pinned_ok = Command::new("taskset")
        .args(["-c", "0", "true"])
        .status()
        .is_ok_and(|s| s.success());
    if !pinned_ok {
        eprintln!("skipped: `taskset -c 0` is not available here");
        return;
    }
    let dir = std::env::temp_dir().join("feves_cli_width");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.y4m");
    write_qcif_input(&input, 6);

    // Checkpoints record the job's paths, so both runs use the same ones.
    let out = dir.join("out");
    let encode = |pin: bool| {
        let _ = std::fs::remove_dir_all(&out);
        std::fs::create_dir_all(&out).unwrap();
        let mut cmd = if pin {
            let mut c = Command::new("taskset");
            c.args(["-c", "0"]).arg(feves_bin());
            c
        } else {
            Command::new(feves_bin())
        };
        let done = cmd
            .args(["encode", input.to_str().unwrap()])
            .arg(out.join("out.y4m"))
            .args(["--platform", "sysnff", "--sa", "16", "--refs", "2"])
            .args(["--inject-fault", "1:panic@2", "--checkpoint-every", "2"])
            .args(["--checkpoint-keep", "8", "--checkpoint-dir"])
            .arg(out.join("ckpts"))
            .arg("--flight-out")
            .arg(out.join("flight.jsonl"))
            .output()
            .expect("spawn feves");
        assert!(
            done.status.success(),
            "{}",
            String::from_utf8_lossy(&done.stderr)
        );
        let mut files = vec![out.join("out.y4m"), out.join("flight.jsonl")];
        files.extend(
            std::fs::read_dir(out.join("ckpts"))
                .unwrap()
                .map(|e| e.unwrap().path()),
        );
        files.sort();
        let files: Vec<_> = files
            .into_iter()
            .map(|p| (p.clone(), std::fs::read(&p).unwrap()))
            .collect();
        let stderr = String::from_utf8_lossy(&done.stderr);
        assert!(
            stderr.contains("injected kernel panic on device 1"),
            "the panic fired: {stderr}"
        );
        (files, done.stdout)
    };
    let (pinned, pinned_stdout) = encode(true);
    let (free, free_stdout) = encode(false);
    assert!(pinned.len() >= 4, "artifact, flight log and 2 checkpoints");
    assert_eq!(pinned.len(), free.len());
    for ((path, a), (_, b)) in pinned.iter().zip(&free) {
        assert!(a == b, "{} differs between widths", path.display());
    }
    assert_eq!(pinned_stdout, free_stdout, "per-frame bits and PSNR");
}

/// `--kernels` picks between two different ME algorithms (per-candidate
/// loop, candidate-major batches) and two block-SAD kernels; the files they
/// write must be the same bytes. QCIF keeps the scalar run cheap in a debug
/// build; two references and SA 16 give the batched search a second window
/// and a second half-batch per candidate row.
#[test]
fn scalar_and_fast_kernels_write_identical_artifacts() {
    let dir = std::env::temp_dir().join("feves_cli_kernels");
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let input = dir.join("in.y4m");
    write_qcif_input(&input, 4);

    let encode = |kernels: &str| {
        let output = dir.join(format!("{kernels}.y4m"));
        let (ok, stdout, stderr) = run(&[
            "encode",
            input.to_str().unwrap(),
            output.to_str().unwrap(),
            "--sa",
            "16",
            "--refs",
            "2",
            "--kernels",
            kernels,
        ]);
        assert!(
            ok,
            "--kernels {kernels}\nstdout:\n{stdout}\nstderr:\n{stderr}"
        );
        // Per-frame bits and PSNR; the simulated time differs by design
        // (the virtual clock charges scalar kernels more).
        let coded: Vec<String> = stdout
            .lines()
            .filter(|l| l.starts_with("frame"))
            .map(|l| l.split("sim").next().unwrap().to_string())
            .collect();
        assert_eq!(coded.len(), 4, "{stdout}");
        (std::fs::read(&output).unwrap(), coded)
    };
    let (scalar, scalar_coded) = encode("scalar");
    let (fast, fast_coded) = encode("fast");
    assert!(scalar == fast, "artifacts differ between kernel families");
    assert_eq!(scalar_coded, fast_coded);
}

/// `--balancer` picks the Algorithm-2 LP or one of its two baselines: a
/// scheduling decision, so the artifact and every frame's bits and PSNR are
/// the same under all three and only the virtual `sim` column moves. It is
/// also the CLI's one path to the balancer a checkpoint
/// (`ResumeContext::balancer`) and a spool spec (`JobSpec::balancer`)
/// record: a killed equidistant session resumes as equidistant, and
/// `submit` writes it into the spec.
#[test]
fn balancer_moves_only_the_simulated_time_and_survives_resume() {
    let dir = common::scratch("balancer");
    let input = dir.join("in.y4m");
    write_qcif_input(&input, 6);
    let input = input.to_str().unwrap();
    let frame_lines = |stdout: &str| -> Vec<String> {
        (stdout.lines())
            .filter(|l| l.starts_with("frame"))
            .map(str::to_string)
            .collect()
    };
    let encode = |balancer: &str, out: &str, extra: &[&str], envs: &[(&str, &str)]| {
        let mut args = vec!["encode", input, out, "--sa", "16", "--balancer", balancer];
        args.extend(extra);
        let (ok, stdout, stderr) = common::run_env(&args, envs);
        (ok, frame_lines(&stdout), stderr)
    };

    let mut runs = Vec::new();
    for balancer in ["feves", "proportional", "equidistant"] {
        let out = dir.join(format!("{balancer}.y4m"));
        let (ok, lines, stderr) = encode(balancer, out.to_str().unwrap(), &[], &[]);
        assert!(ok, "--balancer {balancer}: {stderr}");
        assert_eq!(lines.len(), 6, "--balancer {balancer}");
        runs.push((balancer, std::fs::read(&out).unwrap(), lines));
    }
    let coded = |lines: &[String]| -> Vec<String> {
        (lines.iter())
            .map(|l| l.split("sim").next().unwrap().to_string())
            .collect()
    };
    let (_, artifact, feves) = &runs[0];
    for (balancer, bytes, lines) in &runs[1..] {
        assert!(
            bytes == artifact,
            "--balancer {balancer} moved the artifact"
        );
        assert_eq!(coded(lines), coded(feves), "--balancer {balancer}");
    }
    let equidistant = &runs[2].2;
    assert_ne!(equidistant, feves, "the balancer never reached the timing");

    // Killed at frame 4, just after its checkpoint, and resumed: the lines
    // of an uninterrupted equidistant run, `sim` included.
    let out = dir.join("killed.y4m");
    let out = out.to_str().unwrap();
    let (ok, mut lines, stderr) = encode(
        "equidistant",
        out,
        &["--checkpoint-every", "2"],
        &[("FEVES_CRASH_AT", "frame@4")],
    );
    assert!(
        !ok && stderr.contains("aborting at crash point"),
        "{stderr}"
    );
    let (ok, stdout, stderr) = run(&["resume", &format!("{out}.ckpt")]);
    assert!(ok, "{stderr}");
    lines.extend(frame_lines(&stdout));
    assert_eq!(&lines, equidistant, "the resumed session lost its balancer");
    assert!(std::fs::read(out).unwrap() == *artifact);

    let spool = dir.join("spool");
    std::fs::create_dir_all(&spool).unwrap();
    let job_out = dir.join("job.y4m");
    let (ok, _, stderr) = run(&[
        "submit",
        spool.to_str().unwrap(),
        input,
        job_out.to_str().unwrap(),
        "--id",
        "j0",
        "--balancer",
        "equidistant",
    ]);
    assert!(ok, "{stderr}");
    let spec = std::fs::read_to_string(spool.join("j0.json")).unwrap();
    assert!(spec.contains(r#""balancer": "equidistant""#), "{spec}");

    let bogus = dir.join("bogus.y4m");
    let (code, _, stderr) = run_code(&[
        "encode",
        input,
        bogus.to_str().unwrap(),
        "--balancer",
        "bogus",
    ]);
    assert_eq!(code, Some(2), "{stderr}");
    assert!(
        stderr.starts_with("error: unknown balancer 'bogus'\n"),
        "{stderr}"
    );
    assert!(!bogus.exists(), "no artifact may be left behind");
}

#[test]
fn live_out_snapshot_drives_top_stats_and_report() {
    let dir = std::env::temp_dir().join("feves_cli_live");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.json");
    let live_s = live.to_str().unwrap();

    let (ok, _, stderr) = run(&[
        "simulate",
        "--platform",
        "syshk",
        "--frames",
        "20",
        "--live-out",
        live_s,
        "--live-every",
        "20",
    ]);
    assert!(ok, "{stderr}");
    assert!(stderr.contains("live snapshot written"), "{stderr}");

    // The final snapshot parses and renders in all three surfaces.
    // (--allow-stale: this test checks rendering, not producer liveness,
    // and a loaded test host can take >2x the period to get here.)
    let (ok, stdout, stderr) = run(&["top", "--once", live_s, "--allow-stale"]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("FEVES live"), "{stdout}");
    assert!(stdout.contains("simulate"), "{stdout}");
    assert!(stdout.contains("busy"), "{stdout}");

    let (ok, stdout, _) = run(&["stats", live_s]);
    assert!(ok);
    assert!(stdout.contains("frames.encoded"), "{stdout}");
    assert!(stdout.contains("obs.bus_events"), "{stdout}");

    let (ok, stdout, _) = run(&["report", live_s]);
    assert!(ok);
    assert!(stdout.contains("telemetry bus"), "{stdout}");
    assert!(stdout.contains("devices"), "{stdout}");

    // A live snapshot cannot drive the HTML flight report.
    let (ok, _, stderr) = run(&["report", live_s, "--html"]);
    assert!(!ok);
    assert!(stderr.contains("flight log"), "{stderr}");
}

#[test]
fn top_once_gates_on_snapshot_staleness() {
    // `feves top --once` is the farm's health probe: a snapshot older than
    // twice the producer's period means the producer is gone, and the probe
    // must say so with a non-zero exit — unless --allow-stale opts out.
    let dir = std::env::temp_dir().join("feves_cli_stale");
    std::fs::create_dir_all(&dir).unwrap();
    let live = dir.join("live.json");
    let live_s = live.to_str().unwrap();
    let _ = std::fs::remove_file(&live);

    // Missing snapshot: runtime error (exit 1), not a usage banner.
    let (code, _, stderr) = run_code(&["top", "--once", live_s]);
    assert_eq!(code, Some(1), "missing snapshot must exit 1:\n{stderr}");
    assert!(stderr.contains("error:"), "{stderr}");
    assert!(!stderr.contains("usage:"), "{stderr}");

    let (ok, _, stderr) = run(&[
        "simulate",
        "--platform",
        "syshk",
        "--frames",
        "2",
        "--live-out",
        live_s,
        "--live-every",
        "20",
    ]);
    assert!(ok, "{stderr}");

    // Age the snapshot past 2x the declared period (2 * 100ms).
    std::thread::sleep(std::time::Duration::from_millis(450));
    let (code, _, stderr) = run_code(&["top", "--once", live_s, "--live-every", "100"]);
    assert_eq!(code, Some(1), "stale snapshot must exit 1:\n{stderr}");
    assert!(stderr.contains("stale"), "{stderr}");
    assert!(stderr.contains("--allow-stale"), "hint missing:\n{stderr}");

    // The escape hatch still renders it.
    let (ok, stdout, stderr) = run(&[
        "top",
        "--once",
        live_s,
        "--live-every",
        "100",
        "--allow-stale",
    ]);
    assert!(ok, "{stderr}");
    assert!(stdout.contains("FEVES live"), "{stdout}");
}
