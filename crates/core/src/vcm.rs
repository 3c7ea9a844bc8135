//! Video Coding Manager (paper §III-B, Fig 4).
//!
//! Turns a frame's [`Distribution`] plus the Data-Access-Management transfer
//! plan into the task graph the platform executes: kernels and DMA transfers
//! in the exact submission order of Fig 4, with the τ1/τ2/τtot
//! synchronization points as explicit barriers. The copy-engine FIFO
//! semantics of the simulator then reproduce the single- vs dual-engine
//! overlap behaviour without further case analysis here.

use crate::dam::DeviceTransfers;
use feves_codec::types::{EncodeParams, Module};
use feves_codec::workload::{bytes_per_row, units_per_mb_row};
use feves_hetsim::device::DeviceId;
use feves_hetsim::platform::Platform;
use feves_hetsim::timeline::{Dir, TaskGraph, TaskId, TransferTag};
use feves_sched::Distribution;

/// What a graph task measures, for performance characterization.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum MeasureKind {
    /// A balanced-module kernel: attribute `seconds / rows` to `K^{module}`.
    Compute {
        /// Executing device.
        device: usize,
        /// ME / INT / SME.
        module: Module,
        /// Assigned MB rows.
        rows: usize,
    },
    /// A DMA transfer: attribute to `K^{tag·dir}`.
    Transfer {
        /// Owning accelerator.
        device: usize,
        /// Buffer.
        tag: TransferTag,
        /// Direction.
        dir: Dir,
        /// MB rows moved.
        rows: usize,
    },
    /// One of the R\* kernels: summed into `T^{R*}` of `device`.
    RstarPart {
        /// Executing device.
        device: usize,
    },
}

impl MeasureKind {
    /// The device the measured task ran on (or, for a transfer, served).
    pub fn device(&self) -> usize {
        match *self {
            MeasureKind::Compute { device, .. }
            | MeasureKind::Transfer { device, .. }
            | MeasureKind::RstarPart { device } => device,
        }
    }
}

/// A task worth measuring.
#[derive(Clone, Copy, Debug)]
pub struct MeasuredTask {
    /// Graph task id.
    pub task: TaskId,
    /// Attribution.
    pub kind: MeasureKind,
}

/// The per-frame graph with its synchronization points and measurement
/// index.
#[derive(Debug)]
pub struct FrameGraph {
    /// The task DAG.
    pub graph: TaskGraph,
    /// τ1 barrier (ME + INT + their transfers complete).
    pub tau1: TaskId,
    /// τ2 barrier (SME + its transfers complete).
    pub tau2: TaskId,
    /// τtot barrier (R\* + trailing transfers complete).
    pub tau_tot: TaskId,
    /// Tasks to feed into performance characterization.
    pub measures: Vec<MeasuredTask>,
}

/// Geometry of the encoded frame, in scheduler units.
#[derive(Clone, Copy, Debug)]
pub struct FrameGeometry {
    /// Macroblocks per row.
    pub mb_cols: usize,
    /// MB rows (`N`).
    pub n_rows: usize,
    /// Padded luma width in pixels (transfer sizing).
    pub width: usize,
}

/// Build the task graph for one inter-frame.
///
/// `params` must already carry the *effective* reference count (ramp-up at
/// sequence start). `overlap = false` serializes module phases behind
/// barriers — the synchronous per-module execution of the \[9\] baseline.
#[allow(clippy::needless_range_loop)] // device-indexed parallel arrays
pub fn build_frame_graph(
    dist: &Distribution,
    transfers: &[DeviceTransfers],
    platform: &Platform,
    params: &EncodeParams,
    geo: FrameGeometry,
    overlap: bool,
) -> FrameGraph {
    let _span = feves_obs::span!(feves_obs::global(), "vcm.build");
    let nd = platform.len();
    assert_eq!(dist.n_devices(), nd);
    assert_eq!(transfers.len(), nd);
    let mut g = TaskGraph::new();
    let mut measures = Vec::new();

    let units =
        |module: Module, rows: usize| units_per_mb_row(module, params, geo.mb_cols) * rows as f64;
    let bytes = |tag: TransferTag, rows: usize| match tag {
        TransferTag::Cf => bytes_per_row::cf(geo.width) * rows,
        TransferTag::Rf => bytes_per_row::rf(geo.width) * rows,
        TransferTag::Sf => bytes_per_row::sf(geo.width) * rows,
        TransferTag::Mv => bytes_per_row::mv(geo.width) * rows,
    };

    // τ1 phase. With overlap enabled, each device's transfers and kernels
    // interleave in the Fig 4 submission order; with overlap disabled (the
    // synchronous [9]-style baseline) all input transfers complete behind a
    // barrier before any kernel starts.
    let mut tau1_deps: Vec<TaskId> = Vec::new();

    struct P1<'a> {
        g: &'a mut TaskGraph,
        measures: &'a mut Vec<MeasuredTask>,
    }
    impl P1<'_> {
        #[allow(clippy::too_many_arguments)] // one field per Fig 4 stream attribute
        fn xfer(
            &mut self,
            device: usize,
            dir: Dir,
            tag: TransferTag,
            rows: usize,
            nbytes: usize,
            deps: Vec<TaskId>,
            label: String,
        ) -> Option<TaskId> {
            if rows == 0 {
                return None;
            }
            let id = self
                .g
                .transfer(DeviceId(device), dir, nbytes, tag, deps, label);
            self.measures.push(MeasuredTask {
                task: id,
                kind: MeasureKind::Transfer {
                    device,
                    tag,
                    dir,
                    rows,
                },
            });
            Some(id)
        }
        fn kernel(
            &mut self,
            device: usize,
            module: Module,
            rows: usize,
            u: f64,
            deps: Vec<TaskId>,
            label: String,
        ) -> Option<TaskId> {
            if rows == 0 {
                return None;
            }
            let id = self.g.compute(DeviceId(device), module, u, deps, label);
            self.measures.push(MeasuredTask {
                task: id,
                kind: MeasureKind::Compute {
                    device,
                    module,
                    rows,
                },
            });
            Some(id)
        }
    }

    let mut b = P1 {
        g: &mut g,
        measures: &mut measures,
    };

    // Pass A: input transfers for every accelerator, recorded per device.
    #[derive(Default, Clone)]
    struct InXfers {
        rf_up: Option<TaskId>,
        cf_me: Option<TaskId>,
        cf_sme: Option<TaskId>,
        sig_prev: Option<TaskId>,
    }
    let mut inputs: Vec<InXfers> = vec![InXfers::default(); nd];
    let input_gate: Option<TaskId> = if overlap {
        // Interleaved mode: inputs are created inside the per-device pass
        // below so the copy-engine queue follows the exact Fig 4 order.
        None
    } else {
        for d in 0..nd {
            if !platform.devices[d].is_accelerator() {
                continue;
            }
            let t = &transfers[d];
            inputs[d].rf_up = b.xfer(
                d,
                Dir::H2d,
                TransferTag::Rf,
                t.rf_up,
                bytes(TransferTag::Rf, t.rf_up),
                vec![],
                format!("RF→dev{d}"),
            );
            inputs[d].cf_me = b.xfer(
                d,
                Dir::H2d,
                TransferTag::Cf,
                t.cf_me_up,
                bytes(TransferTag::Cf, t.cf_me_up),
                vec![],
                format!("CF→ME dev{d}"),
            );
            inputs[d].cf_sme = b.xfer(
                d,
                Dir::H2d,
                TransferTag::Cf,
                t.cf_sme_up,
                bytes(TransferTag::Cf, t.cf_sme_up),
                vec![],
                format!("CF→SME dev{d}"),
            );
            inputs[d].sig_prev = b.xfer(
                d,
                Dir::H2d,
                TransferTag::Sf,
                t.sigma_prev_up,
                bytes(TransferTag::Sf, t.sigma_prev_up),
                vec![],
                format!("SF(RF-1)→SME dev{d}"),
            );
        }
        let all: Vec<TaskId> = inputs
            .iter()
            .flat_map(|i| [i.rf_up, i.cf_me, i.cf_sme, i.sig_prev])
            .flatten()
            .collect();
        Some(b.g.barrier(all, "inputs"))
    };

    // Pass B: kernels and remaining τ1 transfers per device.
    for d in 0..nd {
        let t = &transfers[d];
        let is_accel = platform.devices[d].is_accelerator();
        if is_accel {
            let (rf_up, cf_me) = if overlap {
                // Fig 4 submission order: RF, CF→ME first on the engine.
                let rf_up = b.xfer(
                    d,
                    Dir::H2d,
                    TransferTag::Rf,
                    t.rf_up,
                    bytes(TransferTag::Rf, t.rf_up),
                    vec![],
                    format!("RF→dev{d}"),
                );
                let cf_me = b.xfer(
                    d,
                    Dir::H2d,
                    TransferTag::Cf,
                    t.cf_me_up,
                    bytes(TransferTag::Cf, t.cf_me_up),
                    vec![],
                    format!("CF→ME dev{d}"),
                );
                (rf_up, cf_me)
            } else {
                (inputs[d].rf_up, inputs[d].cf_me)
            };
            let mut int_deps: Vec<TaskId> = rf_up.into_iter().collect();
            int_deps.extend(input_gate);
            let k_int = b.kernel(
                d,
                Module::Interp,
                dist.interp[d],
                units(Module::Interp, dist.interp[d]),
                int_deps,
                format!("INT dev{d} ({} rows)", dist.interp[d]),
            );
            let mut me_deps: Vec<TaskId> = rf_up.into_iter().chain(cf_me).collect();
            me_deps.extend(input_gate);
            let k_me = b.kernel(
                d,
                Module::Me,
                dist.me[d],
                units(Module::Me, dist.me[d]),
                me_deps,
                format!("ME dev{d} ({} rows)", dist.me[d]),
            );
            let sf_down = b.xfer(
                d,
                Dir::D2h,
                TransferTag::Sf,
                t.sf_down,
                bytes(TransferTag::Sf, t.sf_down),
                k_int.into_iter().collect(),
                format!("SF(RF)→host dev{d}"),
            );
            let (cf_sme, sig_prev) = if overlap {
                let cf_sme = b.xfer(
                    d,
                    Dir::H2d,
                    TransferTag::Cf,
                    t.cf_sme_up,
                    bytes(TransferTag::Cf, t.cf_sme_up),
                    vec![],
                    format!("CF→SME dev{d}"),
                );
                let sig_prev = b.xfer(
                    d,
                    Dir::H2d,
                    TransferTag::Sf,
                    t.sigma_prev_up,
                    bytes(TransferTag::Sf, t.sigma_prev_up),
                    vec![],
                    format!("SF(RF-1)→SME dev{d}"),
                );
                (cf_sme, sig_prev)
            } else {
                (inputs[d].cf_sme, inputs[d].sig_prev)
            };
            let mv_down = b.xfer(
                d,
                Dir::D2h,
                TransferTag::Mv,
                t.mv_me_down,
                bytes(TransferTag::Mv, t.mv_me_down),
                k_me.into_iter().collect(),
                format!("MV→SME host dev{d}"),
            );
            for id in [
                k_int, k_me, sf_down, cf_sme, sig_prev, mv_down, rf_up, cf_me,
            ]
            .into_iter()
            .flatten()
            {
                tau1_deps.push(id);
            }
        } else {
            // CPU core: kernels only, FIFO on the core serializes INT→ME.
            let gate: Vec<TaskId> = input_gate.into_iter().collect();
            let k_int = b.kernel(
                d,
                Module::Interp,
                dist.interp[d],
                units(Module::Interp, dist.interp[d]),
                gate.clone(),
                format!("INT core{d}"),
            );
            let k_me = b.kernel(
                d,
                Module::Me,
                dist.me[d],
                units(Module::Me, dist.me[d]),
                gate,
                format!("ME core{d}"),
            );
            for id in [k_int, k_me].into_iter().flatten() {
                tau1_deps.push(id);
            }
        }
    }

    let tau1 = b.g.barrier(tau1_deps, "tau1");

    // τ2 phase.
    let mut tau2_deps: Vec<TaskId> = Vec::new();
    let mut sme_done: Vec<Option<TaskId>> = vec![None; nd];
    for d in 0..nd {
        let t = &transfers[d];
        let is_accel = platform.devices[d].is_accelerator();
        if is_accel {
            let sf_dl = b.xfer(
                d,
                Dir::H2d,
                TransferTag::Sf,
                t.sf_dl_up,
                bytes(TransferTag::Sf, t.sf_dl_up),
                vec![tau1],
                format!("SF Δl→dev{d}"),
            );
            let mv_dm = b.xfer(
                d,
                Dir::H2d,
                TransferTag::Mv,
                t.mv_dm_up,
                bytes(TransferTag::Mv, t.mv_dm_up),
                vec![tau1],
                format!("MV Δm→dev{d}"),
            );
            let mut deps = vec![tau1];
            deps.extend(sf_dl);
            deps.extend(mv_dm);
            let k_sme = b.kernel(
                d,
                Module::Sme,
                dist.sme[d],
                units(Module::Sme, dist.sme[d]),
                deps,
                format!("SME dev{d} ({} rows)", dist.sme[d]),
            );
            let mv_sme = b.xfer(
                d,
                Dir::D2h,
                TransferTag::Mv,
                t.mv_sme_down,
                bytes(TransferTag::Mv, t.mv_sme_down),
                k_sme.into_iter().collect(),
                format!("MV(SME)→host dev{d}"),
            );
            // R* device prefetches its remaining CF/SF during τ2 (Fig 5b).
            if dist.rstar_device == d {
                let cf_mc = b.xfer(
                    d,
                    Dir::H2d,
                    TransferTag::Cf,
                    t.cf_mc_up,
                    bytes(TransferTag::Cf, t.cf_mc_up),
                    vec![tau1],
                    format!("CF→MC dev{d}"),
                );
                let sf_mc = b.xfer(
                    d,
                    Dir::H2d,
                    TransferTag::Sf,
                    t.sf_mc_up,
                    bytes(TransferTag::Sf, t.sf_mc_up),
                    vec![tau1],
                    format!("SF→MC dev{d}"),
                );
                tau2_deps.extend(cf_mc);
                tau2_deps.extend(sf_mc);
            }
            sme_done[d] = mv_sme.or(k_sme);
            tau2_deps.extend(k_sme);
            tau2_deps.extend(mv_sme);
        } else {
            let k_sme = b.kernel(
                d,
                Module::Sme,
                dist.sme[d],
                units(Module::Sme, dist.sme[d]),
                vec![tau1],
                format!("SME core{d}"),
            );
            sme_done[d] = k_sme;
            tau2_deps.extend(k_sme);
        }
    }
    let tau2 = b.g.barrier(tau2_deps, "tau2");

    // τtot phase: R* + trailing σ transfers.
    let mut tot_deps: Vec<TaskId> = Vec::new();
    let rstar = dist.rstar_device;
    let rstar_rows = geo.n_rows;
    if platform.devices[rstar].is_accelerator() {
        let t = &transfers[rstar];
        let mv_mc = b.xfer(
            rstar,
            Dir::H2d,
            TransferTag::Mv,
            t.mv_mc_up,
            bytes(TransferTag::Mv, t.mv_mc_up),
            vec![tau2],
            format!("MV→MC dev{rstar}"),
        );
        let mut prev: Vec<TaskId> = vec![tau2];
        prev.extend(mv_mc);
        for module in Module::RSTAR {
            let id = b.g.compute(
                DeviceId(rstar),
                module,
                units(module, rstar_rows),
                prev.clone(),
                format!("{module:?} dev{rstar}"),
            );
            b.measures.push(MeasuredTask {
                task: id,
                kind: MeasureKind::RstarPart { device: rstar },
            });
            prev = vec![id];
        }
        let rf_down = b.xfer(
            rstar,
            Dir::D2h,
            TransferTag::Rf,
            t.rf_down,
            bytes(TransferTag::Rf, t.rf_down),
            prev.clone(),
            format!("RF+1→host dev{rstar}"),
        );
        tot_deps.extend(prev);
        tot_deps.extend(rf_down);
    } else {
        // CPU-centric: split the R* rows over all cores; DBL's macroblock
        // wavefront parallelizes across cores in shared memory.
        let core_rows = feves_video::geometry::equidistant(rstar_rows, platform.n_cores.max(1));
        for (c, &rows) in core_rows.iter().enumerate() {
            let d = platform.n_accel + c;
            let mut prev: Vec<TaskId> = vec![tau2];
            for module in Module::RSTAR {
                if rows == 0 {
                    continue;
                }
                let id = b.g.compute(
                    DeviceId(d),
                    module,
                    units(module, rows),
                    prev.clone(),
                    format!("{module:?} core{d}"),
                );
                b.measures.push(MeasuredTask {
                    task: id,
                    kind: MeasureKind::RstarPart { device: d },
                });
                prev = vec![id];
            }
            tot_deps.extend(prev.into_iter().filter(|t| *t != tau2));
        }
        if tot_deps.is_empty() {
            tot_deps.push(tau2);
        }
    }
    // σ transfers on the other accelerators.
    for d in 0..nd {
        if d == rstar || !platform.devices[d].is_accelerator() {
            continue;
        }
        let t = &transfers[d];
        let sig = b.xfer(
            d,
            Dir::H2d,
            TransferTag::Sf,
            t.sigma_up,
            bytes(TransferTag::Sf, t.sigma_up),
            vec![tau2],
            format!("SF σ→dev{d}"),
        );
        tot_deps.extend(sig);
    }
    tot_deps.push(tau2);
    let tau_tot = b.g.barrier(tot_deps, "tau_tot");

    FrameGraph {
        graph: g,
        tau1,
        tau2,
        tau_tot,
        measures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dam::DataManager;
    use feves_codec::types::SearchArea;
    use feves_hetsim::noise::Deterministic;
    use feves_hetsim::timeline::simulate;

    fn geo() -> FrameGeometry {
        FrameGeometry {
            mb_cols: 120,
            n_rows: 68,
            width: 1920,
        }
    }

    fn params() -> EncodeParams {
        EncodeParams {
            search_area: SearchArea(32),
            n_ref: 1,
            ..Default::default()
        }
    }

    fn build(platform: &Platform, dist: &Distribution, overlap: bool) -> FrameGraph {
        let dam = DataManager::new(68, platform.len());
        let mask: Vec<bool> = platform
            .devices
            .iter()
            .map(|d| d.is_accelerator())
            .collect();
        let plan = dam.plan(dist, &mask, true);
        build_frame_graph(dist, &plan, platform, &params(), geo(), overlap)
    }

    #[test]
    fn graph_simulates_with_ordered_taus() {
        let p = Platform::sys_hk();
        let dist = Distribution::equidistant(68, p.len(), 0);
        let fg = build(&p, &dist, true);
        let sched = simulate(&fg.graph, &p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        let t1 = sched.finish_of(fg.tau1);
        let t2 = sched.finish_of(fg.tau2);
        let tt = sched.finish_of(fg.tau_tot);
        assert!(t1 > 0.0 && t1 <= t2 && t2 <= tt, "{t1} {t2} {tt}");
        assert!(
            (tt - sched.makespan).abs() < 1e-12,
            "tau_tot is the makespan"
        );
    }

    #[test]
    fn equidistant_syshk_close_to_slowest_device_bound() {
        // With an equidistant split, τ1 is dominated by the slowest device's
        // ME share — far worse than a balanced split would allow.
        let p = Platform::sys_hk();
        let dist = Distribution::equidistant(68, p.len(), 0);
        let fg = build(&p, &dist, true);
        let sched = simulate(&fg.graph, &p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        // One CPU_H core at 14 rows of ME (32² SA): K^m per row ≈
        // 55ms/68/1.7*4 per row… just assert the makespan exceeds the GPU's
        // own compute time by a wide margin (the point of adaptivity).
        let gpu_me_14rows = p.devices[0].compute_time(Module::Me, 1024.0 * 120.0 * 14.0, 1.0);
        assert!(sched.makespan > 4.0 * gpu_me_14rows);
    }

    #[test]
    fn no_overlap_is_never_faster() {
        let p = Platform::sys_nff();
        let dist = Distribution::equidistant(68, p.len(), 0);
        let with = build(&p, &dist, true);
        let without = build(&p, &dist, false);
        let s_with = simulate(&with.graph, &p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        let s_without =
            simulate(&without.graph, &p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        assert!(
            s_without.makespan >= s_with.makespan - 1e-12,
            "serializing phases cannot be faster: {} vs {}",
            s_without.makespan,
            s_with.makespan
        );
    }

    #[test]
    fn measures_cover_all_balanced_modules() {
        let p = Platform::sys_hk();
        let dist = Distribution::equidistant(68, p.len(), 0);
        let fg = build(&p, &dist, true);
        for d in 0..p.len() {
            for module in Module::BALANCED {
                let found = fg.measures.iter().any(|m| {
                    matches!(m.kind, MeasureKind::Compute { device, module: mm, rows }
                        if device == d && mm == module && rows > 0)
                });
                assert!(found, "no measurement for {module:?} on device {d}");
            }
        }
        // R* runs somewhere.
        assert!(fg
            .measures
            .iter()
            .any(|m| matches!(m.kind, MeasureKind::RstarPart { .. })));
    }

    #[test]
    fn single_gpu_distribution_has_no_cpu_tasks() {
        let p = Platform::sys_hk();
        let dist = Distribution::single_device(68, p.len(), 0);
        let fg = build(&p, &dist, true);
        for m in &fg.measures {
            match m.kind {
                MeasureKind::Compute { device, .. } => assert_eq!(device, 0),
                MeasureKind::Transfer { device, .. } => assert_eq!(device, 0),
                MeasureKind::RstarPart { device } => assert_eq!(device, 0),
            }
        }
    }

    #[test]
    fn cpu_centric_runs_rstar_on_cores() {
        let p = Platform::sys_nf();
        let mut dist = Distribution::equidistant(68, p.len(), 0);
        dist.rstar_device = p.n_accel; // CPU-centric
        let fg = build(&p, &dist, true);
        let on_cores = fg
            .measures
            .iter()
            .filter(|m| matches!(m.kind, MeasureKind::RstarPart { device } if device >= p.n_accel))
            .count();
        assert!(on_cores >= p.n_cores * Module::RSTAR.len() - 4);
        let sched = simulate(&fg.graph, &p, &p.nominal_speeds(), &mut Deterministic).unwrap();
        assert!(sched.makespan > 0.0);
    }

    #[test]
    fn transfers_attributed_to_correct_tags() {
        let p = Platform::sys_nff();
        let dist = Distribution::equidistant(68, p.len(), 0);
        let fg = build(&p, &dist, true);
        // Non-R* accelerator (device 1) must upload RF and download SF.
        let has = |tag, dir, device| {
            fg.measures.iter().any(|m| {
                matches!(m.kind, MeasureKind::Transfer { device: d, tag: t, dir: dd, rows }
                    if d == device && t == tag && dd == dir && rows > 0)
            })
        };
        assert!(has(TransferTag::Rf, Dir::H2d, 1));
        assert!(has(TransferTag::Sf, Dir::D2h, 1));
        assert!(has(TransferTag::Mv, Dir::D2h, 1));
        // R* accelerator returns the reconstructed RF.
        assert!(has(TransferTag::Rf, Dir::D2h, 0));
        assert!(!has(TransferTag::Rf, Dir::H2d, 0), "R* device keeps its RF");
    }
}
