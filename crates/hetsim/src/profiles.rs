//! Calibrated device profiles for the architectures the paper evaluates.
//!
//! No Nehalem/Haswell CPUs or Fermi/Kepler GPUs exist in this environment,
//! so each architecture is a *performance profile*: seconds per work unit
//! per module, calibrated so that single-device 1080p encoding speeds at
//! SA 32×32 / 1 RF land where Fig 6(a) puts them:
//!
//! | device | paper (≈ fps) | profile target |
//! |---|---|---|
//! | CPU_N (Nehalem i7 950, 4 cores) | ~10 | 10.4 |
//! | CPU_H (Haswell i7 4770K, 4 cores) | ~17 (1.7 × CPU_N) | 17.7 |
//! | GPU_F (Fermi GTX 580) | ~26 | 26.1 |
//! | GPU_K (Kepler GTX 780 Ti) | ~48 (≈2 × GPU_F) | 48.8 |
//!
//! and so that the module shares match the paper's §II breakdown
//! (ME+INT+SME ≈ 90 %, MC+TQ+TQ⁻¹ < 3 %). ME time scales with SA²·nRF
//! through the work model, reproducing the "quadruplication" between SA
//! sizes without further tuning. Links use PCIe-2/3-era asymmetric
//! bandwidths; Fermi boards have a single copy engine, the Kepler board a
//! dual one (§III-A discusses exactly this distinction).
//!
//! CPU_N and CPU_H model the paper's SSE/AVX kernels whatever loop this
//! host ran to compute the pixels: the modelled platform never reads the
//! host.

use crate::device::{CopyEngines, DeviceKind, DeviceProfile, LinkProfile, ModuleTable};
use feves_codec::types::Module;

/// 1080p reference geometry used for calibration (120×68 MBs).
const CAL_MBS: f64 = 120.0 * 68.0;
/// ME work units per frame at SA 32×32, 1 RF.
const CAL_ME_UNITS: f64 = CAL_MBS * 1024.0;

/// Build a profile from per-module *frame times* (ms) at the calibration
/// point (1080p, SA 32, 1 RF).
#[allow(clippy::too_many_arguments)] // one argument per inter-loop module
fn from_frame_times_ms(
    name: &str,
    kind: DeviceKind,
    me: f64,
    interp: f64,
    sme: f64,
    mc: f64,
    tq: f64,
    itq: f64,
    dbl: f64,
    link: Option<LinkProfile>,
) -> DeviceProfile {
    let table = ModuleTable::from_fn(|m| {
        let (ms, units) = match m {
            Module::Me => (me, CAL_ME_UNITS),
            Module::Interp => (interp, CAL_MBS),
            Module::Sme => (sme, CAL_MBS),
            Module::Mc => (mc, CAL_MBS),
            Module::Tq => (tq, CAL_MBS),
            Module::Itq => (itq, CAL_MBS),
            Module::Dbl => (dbl, CAL_MBS),
        };
        ms * 1e-3 / units
    });
    DeviceProfile {
        name: name.into(),
        kind,
        seconds_per_unit: table,
        link,
        memory_bytes: None,
    }
}

/// Attach a device-memory capacity to a profile.
fn with_memory(mut p: DeviceProfile, mb: u64) -> DeviceProfile {
    p.memory_bytes = Some(mb * 1024 * 1024);
    p
}

/// Intel Nehalem i7 950 (quad core, SSE 4.2 kernels) — whole-chip profile.
///
/// ≈10.4 fps at the calibration point; ME+INT+SME ≈ 93 % of frame time.
pub fn cpu_nehalem() -> DeviceProfile {
    from_frame_times_ms(
        "CPU_N",
        DeviceKind::CpuCore,
        55.0, // ME
        14.0, // INT
        20.0, // SME
        1.2,  // MC
        0.8,  // TQ
        0.8,  // TQ⁻¹
        4.0,  // DBL
        None,
    )
}

/// Intel Haswell i7 4770K (quad core, AVX2 kernels): ≈1.7× CPU_N (§IV).
pub fn cpu_haswell() -> DeviceProfile {
    let base = cpu_nehalem();
    DeviceProfile {
        name: "CPU_H".into(),
        seconds_per_unit: ModuleTable::from_fn(|m| base.seconds_per_unit.get(m) / 1.7),
        ..base
    }
}

/// NVIDIA Fermi GTX 580 (single copy engine, PCIe 2.0).
///
/// ≈26 fps at the calibration point (paper: real-time at 32×32 / 1 RF).
pub fn gpu_fermi() -> DeviceProfile {
    with_memory(
        from_frame_times_ms(
            "GPU_F",
            DeviceKind::Accelerator(CopyEngines::Single),
            14.8, // ME
            8.3,  // INT (concurrent with ME on the second kernel stream)
            17.6, // SME
            0.55, // MC
            0.37, // TQ
            0.37, // TQ⁻¹
            4.8,  // DBL
            Some(LinkProfile {
                h2d_bytes_per_sec: 5.8e9,
                d2h_bytes_per_sec: 5.2e9,
                latency_s: 12e-6,
            }),
        ),
        1536,
    ) // GTX 580: 1.5 GB
}

/// NVIDIA Kepler GTX 780 Ti (dual copy engine, PCIe 3.0): ≈2× GPU_F (§IV).
pub fn gpu_kepler() -> DeviceProfile {
    with_memory(
        from_frame_times_ms(
            "GPU_K",
            DeviceKind::Accelerator(CopyEngines::Dual),
            8.0,  // ME
            4.5,  // INT (concurrent with ME on the second kernel stream)
            9.5,  // SME
            0.30, // MC
            0.20, // TQ
            0.20, // TQ⁻¹
            2.6,  // DBL
            Some(LinkProfile {
                h2d_bytes_per_sec: 11.0e9,
                d2h_bytes_per_sec: 10.0e9,
                latency_s: 8e-6,
            }),
        ),
        3072,
    ) // GTX 780 Ti: 3 GB
}

/// One core of a multi-core CPU profile: a core is `cores`× slower than the
/// whole chip, so `cores` of them running in parallel reproduce the chip's
/// calibrated throughput (the chip profiles already embed the OpenMP
/// parallel efficiency of the paper's measurements).
pub fn cpu_core_of(chip: &DeviceProfile, cores: usize, core_idx: usize) -> DeviceProfile {
    DeviceProfile {
        name: format!("{} core {}", chip.name, core_idx),
        kind: DeviceKind::CpuCore,
        seconds_per_unit: ModuleTable::from_fn(|m| chip.seconds_per_unit.get(m) * cores as f64),
        link: None,
        memory_bytes: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use feves_codec::types::{EncodeParams, SearchArea};
    use feves_codec::workload::units_per_frame;

    /// Frame time of a whole-chip profile at given params (1080p, no comm).
    /// Accelerators run INT concurrently with ME (second kernel stream);
    /// CPU chips serialize all modules.
    fn frame_time(p: &DeviceProfile, sa: u16, n_ref: usize) -> f64 {
        let params = EncodeParams {
            search_area: SearchArea(sa),
            n_ref,
            ..Default::default()
        };
        let t = |m: Module| p.compute_time(m, units_per_frame(m, &params, 120, 68), 1.0);
        let serial: f64 = [
            Module::Sme,
            Module::Mc,
            Module::Tq,
            Module::Itq,
            Module::Dbl,
        ]
        .iter()
        .map(|&m| t(m))
        .sum();
        if p.is_accelerator() {
            t(Module::Me).max(t(Module::Interp)) + serial
        } else {
            t(Module::Me) + t(Module::Interp) + serial
        }
    }

    #[test]
    fn calibration_matches_fig6a_single_device_points() {
        let fps = |p: &DeviceProfile| 1.0 / frame_time(p, 32, 1);
        let cpu_n = fps(&cpu_nehalem());
        let cpu_h = fps(&cpu_haswell());
        let gpu_f = fps(&gpu_fermi());
        let gpu_k = fps(&gpu_kepler());
        assert!((9.0..12.0).contains(&cpu_n), "CPU_N {cpu_n:.1} fps");
        assert!((16.0..19.0).contains(&cpu_h), "CPU_H {cpu_h:.1} fps");
        assert!((25.0..28.0).contains(&gpu_f), "GPU_F {gpu_f:.1} fps");
        assert!((46.0..52.0).contains(&gpu_k), "GPU_K {gpu_k:.1} fps");
        // Paper's stated ratios.
        assert!((cpu_h / cpu_n - 1.7).abs() < 0.05);
        assert!((gpu_k / gpu_f - 2.0).abs() < 0.25);
        // Both GPUs achieve real-time at 32×32 / 1 RF (paper §IV).
        assert!(gpu_f >= 25.0 && gpu_k >= 25.0);
    }

    #[test]
    fn me_share_dominates_and_rstar_is_small() {
        for p in [cpu_nehalem(), gpu_kepler()] {
            let params = EncodeParams {
                search_area: SearchArea(32),
                n_ref: 1,
                ..Default::default()
            };
            let t = |m: Module| p.compute_time(m, units_per_frame(m, &params, 120, 68), 1.0);
            let total: f64 = Module::ALL.iter().map(|&m| t(m)).sum();
            let heavy = t(Module::Me) + t(Module::Interp) + t(Module::Sme);
            let mctq = t(Module::Mc) + t(Module::Tq) + t(Module::Itq);
            assert!(
                heavy / total > 0.80,
                "{}: heavy {:.2}",
                p.name,
                heavy / total
            );
            assert!(mctq / total < 0.03, "{}: mctq {:.3}", p.name, mctq / total);
        }
    }

    #[test]
    fn sa_quadruples_me_time() {
        let p = gpu_kepler();
        let t32 = frame_time(&p, 32, 1);
        let t64 = frame_time(&p, 64, 1);
        // ME quadruples; other modules constant.
        let me32 = 8.0e-3;
        assert!((t64 - (t32 + 3.0 * me32)).abs() < 1e-4, "t64 {t64}");
    }

    #[test]
    fn core_split_preserves_chip_throughput() {
        let chip = cpu_haswell();
        let core = cpu_core_of(&chip, 4, 0);
        let ratio = core.seconds_per_unit.get(Module::Me) / chip.seconds_per_unit.get(Module::Me);
        assert!((ratio - 4.0).abs() < 1e-9);
    }
}
