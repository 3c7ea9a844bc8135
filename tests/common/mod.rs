//! What the suites share: the `feves` binary, scratch directories, a
//! spawn-and-capture, the seeded QCIF Y4M inputs (several goldens and the
//! `ckpt_v3_pr15` fixture depend on those bytes — change [`write_input`]'s
//! scene and they all move), the functional QCIF config and frames, a farm
//! job spec, the fault switches and a Perfetto export's structural check.

#![allow(dead_code)] // every suite uses its own subset

use std::collections::HashMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;

use feves::core::prelude::{EncodeParams, EncoderConfig, ExecutionMode, SearchArea};
use feves::serve::JobSpec;
use feves::video::frame::Frame;
use feves::video::synth::{SynthConfig, SynthSequence};
use feves::video::y4m::{Y4mHeader, Y4mWriter};
use feves::Resolution;
use serde::Value;

/// `target/<profile>/feves`, next to the test executable's `deps/`.
pub fn feves_bin() -> PathBuf {
    let mut p = std::env::current_exe().expect("test exe path");
    p.pop(); // deps/
    p.pop(); // <profile>/
    p.push(format!("feves{}", std::env::consts::EXE_SUFFIX));
    p
}

/// Fresh scratch directory for one test case:
/// `$TMPDIR/feves-<suite>-<name>-<pid>`, the suite being the test
/// executable's name.
pub fn scratch(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test exe path");
    let stem = exe.file_stem().unwrap_or_default().to_string_lossy();
    let suite = stem.rsplit_once('-').map_or(&*stem, |(suite, _hash)| suite);
    let dir = std::env::temp_dir().join(format!("feves-{suite}-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

/// Run the binary to completion: (exit success, stdout, stderr).
pub fn run(args: &[&str]) -> (bool, String, String) {
    run_env(args, &[])
}

/// [`run`] with `envs` added to the child's environment.
pub fn run_env(args: &[&str], envs: &[(&str, &str)]) -> (bool, String, String) {
    let out = Command::new(feves_bin())
        .args(args)
        .envs(envs.iter().copied())
        .output()
        .expect("spawn feves binary (build it with the workspace)");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// Write `frames` frames of the synthetic scene `cfg` to `path` as Y4M at
/// 25 fps, a frame at a time.
pub fn write_y4m(path: &Path, cfg: SynthConfig, frames: usize) {
    let header = Y4mHeader {
        resolution: cfg.resolution,
        fps: (25, 1),
    };
    let mut seq = SynthSequence::new(cfg);
    let file = BufWriter::new(std::fs::File::create(path).expect("create input"));
    let mut w = Y4mWriter::new(file, header);
    for _ in 0..frames {
        w.write_frame(&seq.next_frame()).unwrap();
    }
    w.finish().unwrap();
}

/// The suites' small deterministic QCIF input, by seed and length.
pub fn write_input(path: &Path, seed: u64, frames: usize) {
    let cfg = SynthConfig {
        resolution: Resolution::QCIF,
        seed,
        objects: 4,
        pan: (1.0, 0.5),
        noise: 2,
    };
    write_y4m(path, cfg, frames);
}

/// The functional QCIF configuration: SA 16, two references.
pub fn qcif_config() -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    });
    cfg.resolution = Resolution::QCIF;
    cfg.mode = ExecutionMode::Functional;
    cfg
}

/// The first `n` frames of the small synthetic scene, at QCIF.
pub fn qcif_frames(n: usize) -> Vec<Frame> {
    let mut cfg = SynthConfig::tiny_test();
    cfg.resolution = Resolution::QCIF;
    SynthSequence::new(cfg).take_frames(n)
}

/// Injected kernel panics would otherwise spray backtraces into the test
/// output; silence exactly those and forward everything else.
pub fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let message = info.payload().downcast_ref::<String>();
            if !message.is_some_and(|m| m.contains("injected kernel panic")) {
                default_hook(info);
            }
        }));
    });
}

/// A farm job over `dir/in.y4m` that writes `dir/<id>.y4m`: SA 16, two
/// references, a checkpoint every two frames.
pub fn job_spec(dir: &Path, id: &str) -> JobSpec {
    JobSpec {
        id: id.into(),
        input: dir.join("in.y4m").to_string_lossy().into_owned(),
        output: dir.join(format!("{id}.y4m")).to_string_lossy().into_owned(),
        sa: 16,
        refs: 2,
        checkpoint_every: 2,
        ..JobSpec::default()
    }
}

/// `FEVES_FAULT_SEED` (default 1): the seed of every seeded fault schedule.
pub fn fault_seed() -> u64 {
    std::env::var("FEVES_FAULT_SEED").map_or(1, |s| s.parse().expect("a u64 seed"))
}

/// `FEVES_FAULT_ARTIFACT`: a directory (created here) where the fault
/// suites leave what a failing seed needs, for CI to upload.
pub fn fault_artifact() -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os("FEVES_FAULT_ARTIFACT")?);
    std::fs::create_dir_all(&dir).expect("create FEVES_FAULT_ARTIFACT");
    Some(dir)
}

/// The events of a `TraceLog::to_perfetto` export, after checking its
/// structure: it parses, flow ends carry the binding point `"bp":"e"`, and
/// on each (pid, tid) track the `X` events' `ts` never decreases.
pub fn perfetto_events(json: &str) -> Vec<Value> {
    let doc = serde_json::value_from_str(json).expect("perfetto JSON parses");
    let events = doc.get("traceEvents").and_then(Value::as_array).unwrap();
    let field = |e: &Value, k: &str| e.get(k).and_then(Value::as_str).map(str::to_string);
    let mut last: HashMap<(u64, u64), f64> = HashMap::new();
    for e in events {
        match field(e, "ph").as_deref() {
            Some("f") => assert_eq!(field(e, "bp").as_deref(), Some("e"), "{e:?}"),
            Some("X") => {
                let id = |k: &str| e.get(k).and_then(Value::as_u64).unwrap();
                let key = (id("pid"), id("tid"));
                let ts = e.get("ts").and_then(Value::as_f64).unwrap();
                if let Some(prev) = last.insert(key, ts) {
                    assert!(ts >= prev, "track {key:?} ts not monotonic");
                }
            }
            _ => {}
        }
    }
    events.to_vec()
}
