//! `--pipeline off|on` on the timing path: the pipeline overlaps frames on
//! the *virtual* clock only, so both modes measure identical schedules and
//! only reported times shrink. Byte-identical output under every fault
//! plane is `fault_planes`' oracle.

mod common;

use feves::core::prelude::*;
use feves::obs::Metric;
use std::sync::Arc;

/// The timing path: both modes must *measure* identical schedules (the
/// perf-characterization stream is shared state with the LP), while the
/// pipelined report may only shrink by the recovered stall time.
#[test]
fn timing_run_measures_identically_and_only_reported_times_shrink() {
    fn flights(pipeline: bool) -> (Vec<feves::obs::FlightRecord>, f64, String) {
        let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
        cfg.noise_amp = 0.0;
        cfg.pipeline = pipeline;
        let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
        enc.enable_flight(16);
        let rep = enc.run_timing(10);
        let total: f64 = rep.inter_frames().map(|f| f.tau_tot).sum();
        let recorder = enc.flight().unwrap();
        let jsonl = recorder.to_jsonl();
        (recorder.to_vec(), total, jsonl)
    }
    let (off, total_off, jsonl_off) = flights(false);
    let (on, total_on, jsonl_on) = flights(true);
    // Exported *before* the asserts so a differential failure leaves both
    // flight logs behind for CI to upload as build artifacts.
    if let Some(dir) = common::fault_artifact() {
        std::fs::write(dir.join("flight-off.jsonl"), &jsonl_off).unwrap();
        std::fs::write(dir.join("flight-on.jsonl"), &jsonl_on).unwrap();
    }
    assert_eq!(off.len(), on.len());
    for (a, b) in off.iter().zip(&on) {
        assert_eq!(
            a.measured_tau, b.measured_tau,
            "frame {}: measured schedule diverged between modes",
            a.frame
        );
        assert_eq!(a.predicted_tau, b.predicted_tau, "frame {}", a.frame);
    }
    assert!(
        total_on <= total_off + 1e-9,
        "pipelined reported time must never exceed lockstep ({total_on} > {total_off})"
    );
    // Depth telemetry: lockstep never holds a generation across frames,
    // the pipeline holds exactly one extra in steady state.
    assert!(off.iter().all(|r| r.inflight_depth <= 1));
    assert!(on.iter().skip(1).any(|r| r.inflight_depth == 2));
}

#[test]
fn pipeline_metrics_fire_only_when_enabled() {
    fn overlap_count(pipeline: bool) -> (u64, f64) {
        let rec = Arc::new(feves::obs::MemoryRecorder::new());
        let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
        cfg.noise_amp = 0.0;
        cfg.pipeline = pipeline;
        let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
        enc.set_recorder(rec.clone());
        enc.run_timing(10);
        let h = rec.histogram(Metric::PipelineStallRecoveredUs);
        (h.count(), h.sum())
    }
    let (off_n, _) = overlap_count(false);
    assert_eq!(off_n, 0, "lockstep must not report pipeline metrics");
    let (on_n, on_sum) = overlap_count(true);
    assert!(
        on_n > 0,
        "pipelined run must report stall-recovered samples"
    );
    assert!(
        on_sum > 0.0,
        "SysHK is heterogeneous: some stall time must be recovered"
    );
}

/// A quiesce (what a checkpoint commit does) ends the carried stall: the
/// next frame is submitted alone, recovers nothing and reports exactly the
/// lockstep time, and the frame after it overlaps again.
#[test]
fn a_quiesce_makes_the_next_frame_lockstep() {
    const QUIESCE_AFTER: [usize; 2] = [3, 8];
    fn run(pipeline: bool) -> (Vec<feves::obs::FlightRecord>, Vec<f64>) {
        let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
        cfg.noise_amp = 0.0;
        cfg.pipeline = pipeline;
        let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
        enc.enable_flight(16);
        let mut tau_tot = Vec::new();
        for frame in 1..=12 {
            tau_tot.push(enc.encode_inter_timing().tau_tot);
            if QUIESCE_AFTER.contains(&frame) {
                enc.quiesce_pipeline();
            }
        }
        (enc.flight().unwrap().to_vec(), tau_tot)
    }
    let (on, tau_on) = run(true);
    let (_, tau_off) = run(false);
    let depth: Vec<usize> = on.iter().map(|r| r.inflight_depth).collect();
    assert_eq!(depth, [1, 2, 2, 1, 2, 2, 2, 2, 1, 2, 2, 2]);
    for frame in [1, 4, 9] {
        let r = &on[frame - 1];
        assert!(
            r.devices.iter().all(|d| d.overlap_carried_ms == 0.0),
            "frame {frame} starts cold but carried {:?}",
            r.devices
                .iter()
                .map(|d| d.overlap_carried_ms)
                .collect::<Vec<_>>()
        );
        assert_eq!(tau_on[frame - 1], tau_off[frame - 1], "frame {frame}");
    }
}

/// A checkpoint captures one frame boundary: a pipelined encoder refuses to
/// snapshot while the last frame's stall is still carried.
#[test]
#[should_panic(expected = "quiesced pipeline")]
fn a_pipelined_snapshot_without_a_quiesce_panics() {
    let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
    cfg.pipeline = true;
    let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    enc.encode_inter_timing();
    let _ = enc.snapshot();
}

/// Lockstep reaches a frame boundary after every frame: no quiesce needed.
#[test]
fn a_lockstep_snapshot_needs_no_quiesce() {
    let cfg = EncoderConfig::full_hd(EncodeParams::default());
    let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    enc.encode_inter_timing();
    assert_eq!(enc.snapshot().inter_count, 1);
}
