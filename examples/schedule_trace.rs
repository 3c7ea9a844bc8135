//! Visualize the Fig 4 execution timeline: encode a few 1080p frames on
//! SysHK and print the ASCII Gantt chart of a steady-state frame — kernels
//! and transfers per device engine with the τ1/τ2 synchronization points —
//! then write the frame as a `feves-trace/1` span log and its Perfetto view.
//!
//! ```sh
//! cargo run --release --example schedule_trace
//! ```

use feves::core::prelude::*;
use feves::core::trace::{frame_log, render_gantt};
use feves::obs::MemoryRecorder;
use std::sync::Arc;

fn main() {
    let params = EncodeParams {
        search_area: SearchArea(32),
        n_ref: 2,
        ..Default::default()
    };
    let mut cfg = EncoderConfig::full_hd(params);
    cfg.noise_amp = 0.0;
    let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    let rec = Arc::new(MemoryRecorder::new());
    enc.set_recorder(rec.clone());

    println!("== frame 1: the equidistant probe (initialization phase) ==\n");
    let mut frames = vec![enc.encode_inter_timing()];
    let gantt = |enc: &FevesEncoder| {
        let (fg, sched) = enc.last_schedule().unwrap();
        render_gantt(fg, sched, enc.platform(), 100)
    };
    println!("{}", gantt(&enc));

    for _ in 0..4 {
        frames.push(enc.encode_inter_timing());
    }
    println!("== frame 6: LP-balanced steady state ==\n");
    let report = enc.encode_inter_timing();
    frames.push(report.clone());
    println!("{}", gantt(&enc));
    println!(
        "steady frame time {:.2} ms ({:.1} fps); device lanes: dev0 = GPU_K\n\
         (with its INT stream and two copy engines), dev1..dev4 = CPU_H cores.\n\
         Note ME∥INT on the GPU, SF↓ overlapping kernels, the τ barriers, and\n\
         the R* tail on dev0 after τ2.",
        report.tau_tot * 1e3,
        report.fps()
    );

    // Percentile rollups over the six encoded frames, straight off the
    // per-frame reports.
    let seq = EncodeReport::new("SysHK".into(), frames);
    if let (Some(tau), Some(sched)) = (seq.tau_tot_rollup(), seq.sched_overhead_rollup()) {
        println!(
            "\nrollups over {} frames: tau_tot p50 {:.2} / p95 {:.2} / p99 {:.2} ms; \
             sched overhead p99 {:.1} us",
            seq.frames.len(),
            tau.p50,
            tau.p95,
            tau.p99,
            sched.p99 * 1e3
        );
    }

    // The same run through the metrics recorder.
    println!("\n== recorded metrics ==\n\n{}", rec.render_stats());

    // Machine-readable versions for tooling: the span log (`feves trace
    // <log> --perfetto` converts it) and its Perfetto view.
    std::fs::create_dir_all("target").ok();
    let (fg, sched) = enc.last_schedule().unwrap();
    let log = frame_log(fg, sched, enc.platform());
    std::fs::write("target/schedule_trace.jsonl", log.to_jsonl()).unwrap();
    println!(
        "\n(wrote target/schedule_trace.jsonl — {} spans)",
        log.spans.len()
    );
    std::fs::write("target/schedule_trace.chrome.json", log.to_perfetto()).unwrap();
    println!(
        "(wrote target/schedule_trace.chrome.json — open at ui.perfetto.dev or chrome://tracing)"
    );
}
