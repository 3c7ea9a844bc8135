//! What the binary-driving and farm suites share: where the `feves` binary
//! is, a fresh scratch directory, a spawn-and-capture, the seeded QCIF
//! Y4M inputs (several goldens and the `ckpt_v3_pr15` fixture depend on
//! those bytes — change [`write_input`]'s scene and they all move), and the
//! structural check of a Perfetto export.

#![allow(dead_code)] // every suite uses its own subset

use std::collections::HashMap;
use std::io::BufWriter;
use std::path::{Path, PathBuf};
use std::process::Command;

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
