//! Fault injection on the timing path: the framework must survive device
//! faults and re-dispatch the victim's MB rows to survivors, with every row
//! accounted for (bit-exactness under device faults is `fault_planes`').
//! `FEVES_FAULT_SEED` (default 1) selects the generated schedule.

mod common;

use feves::core::prelude::*;
use feves::ft::{FaultKind, FaultSchedule, FaultSpec};

/// Every inter-frame's distribution must account for every MB row exactly
/// once in each balanced module — no row lost, none dispatched twice.
fn assert_rows_conserved(rep: &EncodeReport, n_rows: usize) {
    for f in rep.inter_frames() {
        let d = f.distribution.as_ref().expect("inter frames carry a dist");
        for (module, rows) in [("ME", &d.me), ("INT", &d.interp), ("SME", &d.sme)] {
            let sum = rows.iter().sum::<usize>();
            assert_eq!(sum, n_rows, "{module} rows, frame {}", f.frame);
        }
    }
}

fn timing_config(faults: Vec<FaultSpec>) -> EncoderConfig {
    let mut cfg = EncoderConfig::full_hd(EncodeParams::default());
    cfg.faults = faults;
    cfg
}

/// Seeded chaos: a generated recoverable schedule (1–3 transient faults on
/// accelerators) must always complete a timing run with every row accounted
/// for, and every detection must come with a matching recovery.
#[test]
fn chaos_schedule_completes_with_rows_conserved() {
    let seed = common::fault_seed();
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
