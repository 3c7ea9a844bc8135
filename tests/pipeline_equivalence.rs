//! Differential equivalence suite for `--pipeline off|on`.
//!
//! The pipeline overlaps frame N+1's ME/INT phase with frame N's drain on
//! the *virtual* clock only — graph construction, the LP, and every
//! functional kernel are untouched. This suite pins that contract: every
//! acceptance scenario (chaos kills, silent drift, rate control, GOP,
//! CABAC, farm sessions) must produce **byte-identical** bitstreams and
//! reconstructions under both modes, and the timing path must differ only
//! by the recovered stall time.

mod common;

use common::{scratch, write_input};
use feves::core::framework::Perturbation;
use feves::core::prelude::*;
use feves::ft::{FaultKind, FaultSpec};
use feves::obs::Metric;
use feves::serve::session::run_session;
use feves::serve::JobSpec;
use std::path::Path;
use std::sync::Arc;

fn functional_config(pipeline: bool) -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    });
    cfg.resolution = Resolution::QCIF;
    cfg.mode = ExecutionMode::Functional;
    cfg.pipeline = pipeline;
    cfg
}

fn test_frames(n: usize) -> Vec<feves::video::frame::Frame> {
    let mut cfg = SynthConfig::tiny_test();
    cfg.resolution = Resolution::QCIF;
    SynthSequence::new(cfg).take_frames(n)
}

/// Functional signature of one scenario: per-frame bit counts, the final
/// reconstruction plane, and the fault-tolerance counters.
fn signature(
    pipeline: bool,
    scenario: &dyn Fn(&mut EncoderConfig, &mut Vec<Perturbation>),
) -> (Vec<Option<u64>>, Vec<u8>, FtStats) {
    let frames = test_frames(6);
    let mut cfg = functional_config(pipeline);
    let mut perturbations = Vec::new();
    scenario(&mut cfg, &mut perturbations);
    let mut enc = FevesEncoder::new(Platform::sys_nff(), cfg).unwrap();
    for p in perturbations {
        enc.add_perturbation(p);
    }
    let rep = enc.encode_sequence(&frames);
    let bits = rep.inter_frames().map(|f| f.bits).collect();
    let recon = enc.last_reconstruction().unwrap().as_slice().to_vec();
    (bits, recon, enc.ft_stats())
}

fn assert_differential(name: &str, scenario: &dyn Fn(&mut EncoderConfig, &mut Vec<Perturbation>)) {
    let (bits_off, recon_off, ft_off) = signature(false, scenario);
    let (bits_on, recon_on, ft_on) = signature(true, scenario);
    assert_eq!(
        bits_off, bits_on,
        "{name}: per-frame bits diverge between --pipeline off and on"
    );
    assert_eq!(
        recon_off, recon_on,
        "{name}: reconstructions diverge between --pipeline off and on"
    );
    assert_eq!(
        ft_off, ft_on,
        "{name}: fault-tolerance counters diverge between modes"
    );
}

#[test]
fn plain_encode_is_mode_invariant() {
    assert_differential("plain", &|_, _| {});
}

#[test]
fn chaos_kill_of_every_accelerator_is_mode_invariant() {
    for device in 0..Platform::sys_nff().n_accel {
        assert_differential(&format!("death@{device}"), &move |cfg, _| {
            cfg.faults = vec![FaultSpec {
                device,
                frame: 3,
                kind: FaultKind::Death,
            }];
        });
    }
}

#[test]
fn transfer_fault_and_stall_are_mode_invariant() {
    assert_differential("xfer", &|cfg, _| {
        cfg.faults = vec![FaultSpec {
            device: 0,
            frame: 4,
            kind: FaultKind::TransferError,
        }];
    });
    assert_differential("stall", &|cfg, _| {
        cfg.faults = vec![FaultSpec {
            device: 1,
            frame: 3,
            kind: FaultKind::Stall { frames: 2 },
        }];
    });
}

#[test]
fn silent_drift_is_mode_invariant() {
    assert_differential("drift", &|cfg, perts| {
        cfg.ewma = feves::sched::Ewma(0.1);
        perts.push(Perturbation {
            device: 0,
            frames: 3..1000,
            factor: 0.5,
        });
    });
}

#[test]
fn rate_control_gop_and_cabac_are_mode_invariant() {
    assert_differential("rate-control", &|cfg, _| {
        cfg.rate_control = Some(RateControlConfig {
            target_kbps: 400.0,
            fps: 25.0,
        });
    });
    assert_differential("gop", &|cfg, _| {
        cfg.gop = Some(3);
    });
    assert_differential("cabac", &|cfg, _| {
        cfg.entropy = feves::codec::cabac::EntropyBackend::Cabac;
    });
}

#[test]
fn health_jittered_lease_session_is_mode_invariant() {
    // The farm decorrelates re-admission probes per job; the jitter is
    // scheduling-only and must stay so under the pipeline.
    assert_differential("lease-jitter", &|cfg, _| {
        cfg.health_jitter = Some(0xFEE7);
        cfg.faults = vec![FaultSpec {
            device: 0,
            frame: 2,
            kind: FaultKind::Death,
        }];
    });
}

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
    if let Ok(dir) = std::env::var("FEVES_PIPELINE_ARTIFACT") {
        std::fs::create_dir_all(&dir).expect("artifact dir");
        std::fs::write(Path::new(&dir).join("flight-off.jsonl"), &jsonl_off).unwrap();
        std::fs::write(Path::new(&dir).join("flight-on.jsonl"), &jsonl_on).unwrap();
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

// ---- farm differential ---------------------------------------------------

#[test]
fn farm_session_output_is_mode_invariant() {
    let dir = scratch("farm");
    write_input(&dir.join("in.y4m"), 7, 6);
    let mut outputs = Vec::new();
    for (tag, pipeline) in [("off", false), ("on", true)] {
        let job = JobSpec {
            id: format!("pipe-{tag}"),
            input: dir.join("in.y4m").to_string_lossy().into_owned(),
            output: dir
                .join(format!("out-{tag}.y4m"))
                .to_string_lossy()
                .into_owned(),
            sa: 16,
            refs: 2,
            checkpoint_every: 2,
            pipeline,
            ..JobSpec::default()
        };
        let ctl = Arc::new(SessionCtl::new());
        let rep = run_session(&job, &ctl, feves::obs::hub().session(&job.id), 0, None).unwrap();
        assert_eq!(rep.frames_done, 6);
        outputs.push(std::fs::read(&job.output).unwrap());
    }
    assert_eq!(
        outputs[0], outputs[1],
        "farm session output must be bit-identical across pipeline modes"
    );
}

#[test]
fn chaos_killed_pipelined_farm_job_recovers_mode_invariant() {
    let dir = scratch("farmchaos");
    write_input(&dir.join("in.y4m"), 7, 6);
    let mut outputs = Vec::new();
    for (tag, pipeline) in [("off", false), ("on", true)] {
        let job = JobSpec {
            id: format!("chaos-{tag}"),
            input: dir.join("in.y4m").to_string_lossy().into_owned(),
            output: dir
                .join(format!("out-{tag}.y4m"))
                .to_string_lossy()
                .into_owned(),
            sa: 16,
            refs: 2,
            checkpoint_every: 2,
            chaos_kill_at: Some(4),
            pipeline,
            ..JobSpec::default()
        };
        let ctl = Arc::new(SessionCtl::new());
        let killed = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            run_session(&job, &ctl, feves::obs::hub().session(&job.id), 0, None)
        }));
        assert!(killed.is_err(), "{tag}: attempt 0 must hit the chaos kill");
        let rep = run_session(&job, &ctl, feves::obs::hub().session(&job.id), 1, None).unwrap();
        assert_eq!(rep.frames_done, 6, "{tag}: retry must complete");
        outputs.push(std::fs::read(&job.output).unwrap());
    }
    assert_eq!(
        outputs[0], outputs[1],
        "chaos-killed farm recovery must be bit-identical across pipeline modes"
    );
}
