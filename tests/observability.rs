//! Golden-file tests for the observability exporters: the deterministic
//! JSONL metrics dump and the Perfetto view of the last frame's span log
//! must stay byte-stable for a noise-free SysHK timing run.
//!
//! The goldens live in `tests/golden/`. To regenerate after an intentional
//! format change:
//!
//! ```sh
//! UPDATE_GOLDEN=1 cargo test --test observability
//! ```
//!
//! Every encoder here records into its own `MemoryRecorder`; nothing is
//! process-global, so the parallel test threads cannot see each other.

use feves::core::prelude::*;
use feves::core::trace::frame_log;
use feves::obs::MemoryRecorder;
use std::sync::Arc;

/// Deterministic SysHK timing config: zero profile noise so every run
/// produces identical virtual-clock timings.
fn quiet_cfg() -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(32),
        n_ref: 2,
        ..Default::default()
    });
    cfg.noise_amp = 0.0;
    cfg
}

/// The recorder of a `frames`-frame run, and the Perfetto JSON of its last
/// frame.
fn run(frames: usize) -> (Arc<MemoryRecorder>, String) {
    let rec = Arc::new(MemoryRecorder::new());
    let mut enc = FevesEncoder::new(Platform::sys_hk(), quiet_cfg()).unwrap();
    enc.set_recorder(rec.clone());
    enc.run_timing(frames);
    let (fg, sched) = enc.last_schedule().expect("timing run leaves a schedule");
    (rec, frame_log(fg, sched, enc.platform()).to_perfetto())
}

fn check_golden(name: &str, actual: &str) {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::write(&path, actual).expect("write golden");
        return;
    }
    let expected = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {}: {e}", path.display()));
    assert_eq!(
        actual, expected,
        "{name} drifted from its golden; run UPDATE_GOLDEN=1 cargo test --test observability \
         if the change is intentional"
    );
}

#[test]
fn jsonl_metrics_match_golden() {
    let (rec, _) = run(6);
    // Deterministic mode: wall-clock metrics and spans excluded.
    check_golden("metrics.jsonl", &rec.to_jsonl(true));
}

#[test]
fn chrome_trace_matches_golden() {
    let (_, perfetto) = run(6);
    check_golden("trace.chrome.json", &perfetto);
}

#[test]
fn exporters_are_deterministic_across_runs() {
    let (rec_a, perfetto_a) = run(4);
    let (rec_b, perfetto_b) = run(4);
    assert_eq!(rec_a.to_jsonl(true), rec_b.to_jsonl(true));
    assert_eq!(perfetto_a, perfetto_b);
}

#[test]
fn recorder_counts_match_report() {
    use feves::obs::Metric;
    let rec = Arc::new(MemoryRecorder::new());
    let mut enc = FevesEncoder::new(Platform::sys_hk(), quiet_cfg()).unwrap();
    enc.set_recorder(rec.clone());
    let report = enc.run_timing(5);
    assert_eq!(report.frames.len(), 5);
    assert_eq!(rec.counter(Metric::FramesEncoded), 5);
    // Frame 1 is the uncharacterized equidistant probe; the LP runs on the
    // remaining frames.
    let lp = rec.histogram(Metric::LpIterations);
    assert_eq!(lp.count(), 4);
    // τ measurements arrive once per inter frame and are strictly ordered
    // τ1 ≤ τ2 ≤ τtot.
    let t1 = rec.histogram(Metric::FrameTau1Ms);
    let tt = rec.histogram(Metric::FrameTauTotMs);
    assert_eq!(t1.count(), 5);
    assert_eq!(tt.count(), 5);
    assert!(t1.max() <= tt.max());
    // A HD frame must move data to the GPU.
    assert!(rec.counter(Metric::DamBytesTransferred) > 0);
    // The encoder times its own scheduling calls, once per fault-free
    // inter frame, on the recorder it was handed.
    for name in ["balance", "dam.plan", "vcm.build"] {
        let span = rec.spans().into_iter().find(|s| s.name == name);
        assert_eq!(span.map(|s| s.count), Some(5), "{name}");
    }
}
