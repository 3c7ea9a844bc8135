//! Fault-injection (chaos) suite: the framework must survive device
//! faults, re-dispatch the victim's MB rows to survivors, and — in
//! functional mode — produce bit-exact output versus a fault-free run.
//!
//! `FEVES_CHAOS_SEED` selects the generated schedule (CI runs several);
//! unset it and the suite still runs with seed 1.

use feves::core::prelude::*;
use feves::ft::{FaultKind, FaultSchedule, FaultSpec};

/// Every inter-frame's distribution must account for every MB row exactly
/// once in each balanced module — no row lost, none dispatched twice.
fn assert_rows_conserved(rep: &EncodeReport, n_rows: usize) {
    for f in rep.inter_frames() {
        let d = f.distribution.as_ref().expect("inter frames carry a dist");
        assert_eq!(
            d.me.iter().sum::<usize>(),
            n_rows,
            "ME rows, frame {}",
            f.frame
        );
        assert_eq!(
            d.interp.iter().sum::<usize>(),
            n_rows,
            "INT rows, frame {}",
            f.frame
        );
        assert_eq!(
            d.sme.iter().sum::<usize>(),
            n_rows,
            "SME rows, frame {}",
            f.frame
        );
    }
}

fn timing_config(faults: Vec<FaultSpec>) -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
    cfg.faults = faults;
    cfg
}

fn functional_config(faults: Vec<FaultSpec>) -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams {
        search_area: SearchArea(16),
        n_ref: 2,
        ..Default::default()
    });
    cfg.resolution = Resolution::QCIF;
    cfg.mode = ExecutionMode::Functional;
    cfg.faults = faults;
    cfg
}

fn test_frames(n: usize) -> Vec<feves::video::frame::Frame> {
    let mut cfg = SynthConfig::tiny_test();
    cfg.resolution = Resolution::QCIF;
    SynthSequence::new(cfg).take_frames(n)
}

/// Injected kernel panics would otherwise spray backtraces into the test
/// output; silence exactly those and forward everything else.
fn silence_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default_hook = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let injected = info
                .payload()
                .downcast_ref::<String>()
                .is_some_and(|m| m.contains("injected kernel panic"));
            if !injected {
                default_hook(info);
            }
        }));
    });
}

fn functional_signature(faults: Vec<FaultSpec>) -> (Vec<Option<u64>>, Vec<u8>, FtStats) {
    let frames = test_frames(5);
    let mut enc = FevesEncoder::new(Platform::sys_nff(), functional_config(faults)).unwrap();
    let rep = enc.encode_sequence(&frames);
    assert_rows_conserved(&rep, enc.geometry().n_rows);
    let bits = rep.inter_frames().map(|f| f.bits).collect();
    let recon = enc.last_reconstruction().unwrap().as_slice().to_vec();
    (bits, recon, enc.ft_stats())
}

/// The acceptance scenario: killing any single accelerator mid-sequence on
/// SysNFF completes the encode bit-exactly versus a fault-free run, with at
/// least one detected fault, at least one re-solve, and zero lost MB rows.
#[test]
fn killing_any_single_accelerator_is_bit_exact() {
    let (ref_bits, ref_recon, ref_ft) = functional_signature(Vec::new());
    assert_eq!(ref_ft, FtStats::default(), "fault-free run must be silent");
    for device in 0..Platform::sys_nff().n_accel {
        let (bits, recon, ft) = functional_signature(vec![FaultSpec {
            device,
            frame: 3,
            kind: FaultKind::Death,
        }]);
        assert_eq!(bits, ref_bits, "bits diverge after killing device {device}");
        assert_eq!(
            recon, ref_recon,
            "reconstruction diverges after killing device {device}"
        );
        assert!(ft.injected >= 1, "device {device}: fault not injected");
        assert!(ft.detected >= 1, "device {device}: fault not detected");
        assert!(ft.resolves >= 1, "device {device}: no re-solve happened");
        assert!(
            ft.redispatched_rows >= 1,
            "device {device}: no rows re-dispatched"
        );
    }
}

/// A kernel panic in a device's row band is caught, that band recomputed
/// on the host, and the output stays bit-exact. The hook fires once per
/// non-empty band, so the rows re-dispatched are exactly the panicking
/// device's bands: its ME band alone, its SME band alone, or both.
#[test]
fn injected_kernel_panic_is_caught_and_bit_exact() {
    silence_injected_panics();
    // The proportional split leaves SysNFF devices with an ME band and no
    // SME band, and the reverse, at QCIF.
    const PANIC_FRAME: usize = 2;
    let run = |faults: Vec<FaultSpec>| {
        let mut cfg = functional_config(faults);
        cfg.balancer = BalancerKind::Proportional;
        let mut enc = FevesEncoder::new(Platform::sys_nff(), cfg).unwrap();
        let rep = enc.encode_sequence(&test_frames(5));
        let bits: Vec<_> = rep.inter_frames().map(|f| f.bits).collect();
        let dist = rep
            .inter_frames()
            .find(|f| f.frame == PANIC_FRAME)
            .and_then(|f| f.distribution.clone())
            .expect("the panic frame was encoded");
        let recon = enc.last_reconstruction().unwrap().as_slice().to_vec();
        (bits, recon, dist, enc.ft_stats())
    };
    let (ref_bits, ref_recon, ref_dist, _) = run(Vec::new());
    let me_only = (0..ref_dist.me.len()).find(|&d| ref_dist.me[d] > 0 && ref_dist.sme[d] == 0);
    let sme_only = (0..ref_dist.me.len()).find(|&d| ref_dist.me[d] == 0 && ref_dist.sme[d] > 0);
    let both = (0..ref_dist.me.len()).find(|&d| ref_dist.me[d] > 0 && ref_dist.sme[d] > 0);
    for device in [me_only, sme_only, both] {
        let device = device.expect("the split has an ME-only, an SME-only and a full device");
        let (bits, recon, dist, ft) = run(vec![FaultSpec {
            device,
            frame: PANIC_FRAME,
            kind: FaultKind::KernelPanic,
        }]);
        assert_eq!(bits, ref_bits, "device {device}: bits diverge");
        assert_eq!(recon, ref_recon, "device {device}: reconstruction diverges");
        assert_eq!(dist, ref_dist, "device {device}: the split moved");
        let bands = usize::from(dist.me[device] > 0) + usize::from(dist.sme[device] > 0);
        assert_eq!(
            ft.detected, bands as u64,
            "device {device}: one fault per band"
        );
        assert_eq!(ft.recovered, bands as u64, "device {device}");
        assert_eq!(
            ft.redispatched_rows,
            (dist.me[device] + dist.sme[device]) as u64,
            "device {device}: exactly its bands are recomputed"
        );
    }
}

/// Every CPU core's band panics in the same frame. Each fault must be
/// judged against the cores the previous fault left, not the set the frame
/// started with — otherwise every core sees "three others still live", the
/// whole host is blacklisted and the next frame has nothing to run on.
#[test]
fn all_cores_panicking_in_one_frame_keeps_the_last_core() {
    silence_injected_panics();
    const PANIC_FRAME: usize = 2;
    let cores = Platform::sys_nf().n_accel..Platform::sys_nf().len();
    let run = |faults: Vec<FaultSpec>| {
        let mut enc = FevesEncoder::new(Platform::sys_nf(), functional_config(faults)).unwrap();
        let mut ever_blacklisted = vec![false; enc.platform().len()];
        let mut reports = Vec::new();
        for frame in &test_frames(6) {
            reports.push(enc.encode_frame(frame));
            for d in enc.health().blacklisted() {
                ever_blacklisted[d] = true;
            }
        }
        let bits: Vec<_> = reports.iter().map(|f| f.bits).collect();
        let dist = reports
            .iter()
            .find(|f| f.frame == PANIC_FRAME)
            .and_then(|f| f.distribution.clone())
            .expect("the panic frame was encoded");
        let recon = enc.last_reconstruction().unwrap().as_slice().to_vec();
        (bits, recon, dist, enc.ft_stats(), ever_blacklisted)
    };
    let (ref_bits, ref_recon, ref_dist, _, _) = run(Vec::new());
    let (bits, recon, dist, ft, ever_blacklisted) = run(cores
        .clone()
        .map(|device| FaultSpec {
            device,
            frame: PANIC_FRAME,
            kind: FaultKind::KernelPanic,
        })
        .collect());
    assert_eq!(bits, ref_bits, "bits diverge");
    assert_eq!(recon, ref_recon, "reconstruction diverges");
    assert_eq!(dist, ref_dist, "the split of the panic frame moved");
    let bands: usize = cores
        .clone()
        .map(|d| usize::from(dist.me[d] > 0) + usize::from(dist.sme[d] > 0))
        .sum();
    assert!(
        cores.clone().all(|d| dist.me[d] + dist.sme[d] > 0),
        "every core holds a band of the panic frame: {dist:?}"
    );
    assert_eq!(ft.detected, bands as u64, "one fault per band");
    assert_eq!(ft.recovered, bands as u64);
    assert!(
        cores.clone().any(|d| !ever_blacklisted[d]),
        "one core must stay live throughout: {ever_blacklisted:?}"
    );
}

/// Seeded chaos: a generated recoverable schedule (1–3 transient faults on
/// accelerators) must always complete a timing run with every row accounted
/// for, and every detection must come with a matching recovery.
#[test]
fn chaos_schedule_completes_with_rows_conserved() {
    let seed: u64 = std::env::var("FEVES_CHAOS_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(1);
    let platform = Platform::sys_nff();
    let schedule = FaultSchedule::chaos(seed, platform.n_accel, 10);
    assert!(!schedule.is_empty(), "chaos generator produced no faults");
    let mut enc = FevesEncoder::new(platform, timing_config(schedule.specs)).unwrap();
    let rep = enc.run_timing(16);
    assert_eq!(rep.inter_frames().count(), 16);
    assert_rows_conserved(&rep, enc.geometry().n_rows);
    let ft = enc.ft_stats();
    assert!(ft.injected >= 1);
    assert!(
        ft.resolves <= ft.detected,
        "every re-solve stems from a detection: {ft:?}"
    );
    // Whatever was blacklisted, the run must have kept at least one CPU
    // core alive — CPU-only is the graceful-degradation floor.
    assert!(enc.health().n_available() >= 1);
}

/// Transfer faults take the dedicated H2D/D2H detection path (no deadline
/// involved) and recover the same way.
#[test]
fn transfer_fault_detected_and_recovered() {
    let mut enc = FevesEncoder::new(
        Platform::sys_nff(),
        timing_config(vec![FaultSpec {
            device: 0,
            frame: 4,
            kind: FaultKind::TransferError,
        }]),
    )
    .unwrap();
    let rep = enc.run_timing(10);
    assert_rows_conserved(&rep, enc.geometry().n_rows);
    let ft = enc.ft_stats();
    assert!(ft.detected >= 1 && ft.recovered >= 1 && ft.resolves >= 1);
}

/// Disambiguation (ft.drift_vs_fault): a deadline miss on a device the
/// drift detector had already flagged is counted separately — it is far
/// more likely the same quiet degradation than an independent hard fault.
#[test]
fn deadline_miss_on_drifting_device_counts_as_drift_vs_fault() {
    use feves::core::framework::Perturbation;
    // Phase 1 — silent degradation: device 0 halves its speed at inter
    // frame 5 with a sluggish EWMA, so residuals sit out of band and the
    // drift detector flags it (no fault involved).
    // Phase 2 — a stall lands on the *same* device right after the firing
    // (frame 5+k fires the detector, 5+k+1 is the re-probe, 5+k+2 is the
    // first LP frame with the flag still up): the resulting deadline miss
    // must bump drift_vs_fault.
    let mut cfg = timing_config(vec![FaultSpec {
        device: 0,
        frame: 9,
        kind: FaultKind::Stall { frames: 2 },
    }]);
    cfg.noise_amp = 0.0;
    cfg.ewma = feves::sched::Ewma(0.1);
    let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    enc.add_perturbation(Perturbation {
        device: 0,
        frames: 5..100,
        factor: 0.5,
    });
    let rep = enc.run_timing(14);
    assert_rows_conserved(&rep, enc.geometry().n_rows);
    let ft = enc.ft_stats();
    assert!(ft.detected >= 1, "the stall must still be detected: {ft:?}");
    assert!(
        ft.drift_vs_fault >= 1,
        "deadline miss on a drift-flagged device not disambiguated: {ft:?}"
    );

    // Control: the same stall on a *healthy* device is a plain fault.
    let mut cfg = timing_config(vec![FaultSpec {
        device: 0,
        frame: 9,
        kind: FaultKind::Stall { frames: 2 },
    }]);
    cfg.noise_amp = 0.0;
    let mut enc = FevesEncoder::new(Platform::sys_hk(), cfg).unwrap();
    enc.run_timing(14);
    let ft = enc.ft_stats();
    assert!(ft.detected >= 1);
    assert_eq!(
        ft.drift_vs_fault, 0,
        "no drift flag, so no disambiguation: {ft:?}"
    );
}
