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

/// One DMA stream of Fig 4: which way it moves which buffer, the stem of its
/// task label (the device index is appended) and the [`DeviceTransfers`]
/// field that carries its MB rows.
#[derive(Clone, Copy)]
pub(crate) struct Stream {
    pub(crate) dir: Dir,
    pub(crate) tag: TransferTag,
    stem: &'static str,
    pub(crate) rows: fn(&DeviceTransfers) -> usize,
}

impl Stream {
    /// Bytes one MB row of this stream's buffer takes at `width` luma pixels.
    pub(crate) fn bytes_per_row(&self, width: usize) -> usize {
        match self.tag {
            TransferTag::Cf => bytes_per_row::cf(width),
            TransferTag::Rf => bytes_per_row::rf(width),
            TransferTag::Sf => bytes_per_row::sf(width),
            TransferTag::Mv => bytes_per_row::mv(width),
        }
    }
}

macro_rules! fig4_streams {
    ($($name:ident = $dir:ident $tag:ident $stem:literal $field:ident;)*) => {
        $(const $name: Stream = Stream {
            dir: Dir::$dir,
            tag: TransferTag::$tag,
            stem: $stem,
            rows: |t| t.$field,
        };)*
        /// Every stream: what `dam` folds its row and byte totals over.
        pub(crate) const STREAMS: &[Stream] = &[$($name),*];
    };
}

// The Fig 4 stream table, in submission order (DESIGN.md's VCM section adds
// the phase, the dependency and the receiving devices of each).
fig4_streams! {
    RF_UP         = H2d Rf "RF→dev"           rf_up;
    CF_ME_UP      = H2d Cf "CF→ME dev"        cf_me_up;
    SF_DOWN       = D2h Sf "SF(RF)→host dev"  sf_down;
    CF_SME_UP     = H2d Cf "CF→SME dev"       cf_sme_up;
    SIGMA_PREV_UP = H2d Sf "SF(RF-1)→SME dev" sigma_prev_up;
    MV_ME_DOWN    = D2h Mv "MV→SME host dev"  mv_me_down;
    SF_DL_UP      = H2d Sf "SF Δl→dev"        sf_dl_up;
    MV_DM_UP      = H2d Mv "MV Δm→dev"        mv_dm_up;
    MV_SME_DOWN   = D2h Mv "MV(SME)→host dev" mv_sme_down;
    CF_MC_UP      = H2d Cf "CF→MC dev"        cf_mc_up;
    SF_MC_UP      = H2d Sf "SF→MC dev"        sf_mc_up;
    MV_MC_UP      = H2d Mv "MV→MC dev"        mv_mc_up;
    RF_DOWN       = D2h Rf "RF+1→host dev"    rf_down;
    SIGMA_UP      = H2d Sf "SF σ→dev"         sigma_up;
}

/// A device's two input pairs: what ME/INT wait for and what SME prefetches.
const ME_INPUTS: [Stream; 2] = [RF_UP, CF_ME_UP];
const SME_INPUTS: [Stream; 2] = [CF_SME_UP, SIGMA_PREV_UP];

/// The graph under construction and its measurement index. Each entry point
/// sizes, labels and records its task, and skips it at zero rows.
struct Builder<'a> {
    graph: TaskGraph,
    measures: Vec<MeasuredTask>,
    transfers: &'a [DeviceTransfers],
    platform: &'a Platform,
    params: &'a EncodeParams,
    geo: FrameGeometry,
}

impl Builder<'_> {
    fn measured(&mut self, task: TaskId, kind: MeasureKind) -> TaskId {
        self.measures.push(MeasuredTask { task, kind });
        task
    }

    fn is_accel(&self, device: usize) -> bool {
        self.platform.devices[device].is_accelerator()
    }

    fn units(&self, module: Module, rows: usize) -> f64 {
        units_per_mb_row(module, self.params, self.geo.mb_cols) * rows as f64
    }

    /// `stream` of `device`'s transfer plan, behind the `deps` that exist.
    fn xfer(&mut self, device: usize, stream: Stream, deps: &[Option<TaskId>]) -> Option<TaskId> {
        let rows = (stream.rows)(&self.transfers[device]);
        if rows == 0 {
            return None;
        }
        let Stream { dir, tag, stem, .. } = stream;
        let id = self.graph.transfer(
            DeviceId(device),
            dir,
            stream.bytes_per_row(self.geo.width) * rows,
            tag,
            ids(deps).collect(),
            format!("{stem}{device}"),
        );
        let kind = MeasureKind::Transfer {
            device,
            tag,
            dir,
            rows,
        };
        Some(self.measured(id, kind))
    }

    fn inputs(&mut self, device: usize, pair: [Stream; 2]) -> [Option<TaskId>; 2] {
        pair.map(|stream| self.xfer(device, stream, &[]))
    }

    /// A balanced-module kernel over `rows` MB rows.
    fn kernel(
        &mut self,
        device: usize,
        module: Module,
        rows: usize,
        deps: &[Option<TaskId>],
    ) -> Option<TaskId> {
        if rows == 0 {
            return None;
        }
        let stem = match module {
            Module::Interp => "INT",
            Module::Me => "ME",
            _ => "SME",
        };
        let label = if self.is_accel(device) {
            format!("{stem} dev{device} ({rows} rows)")
        } else {
            format!("{stem} core{device}")
        };
        let units = self.units(module, rows);
        let id = self
            .graph
            .compute(DeviceId(device), module, units, ids(deps).collect(), label);
        let kind = MeasureKind::Compute {
            device,
            module,
            rows,
        };
        Some(self.measured(id, kind))
    }

    /// The R\* chain over `rows` MB rows, each kernel behind the one before;
    /// returns the last.
    fn rstar(&mut self, device: usize, rows: usize, after: &[Option<TaskId>]) -> Option<TaskId> {
        if rows == 0 {
            return None;
        }
        let kind = if self.is_accel(device) { "dev" } else { "core" };
        let mut prev: Vec<TaskId> = ids(after).collect();
        for module in Module::RSTAR {
            let label = format!("{module:?} {kind}{device}");
            let units = self.units(module, rows);
            let id = self
                .graph
                .compute(DeviceId(device), module, units, prev, label);
            prev = vec![self.measured(id, MeasureKind::RstarPart { device })];
        }
        prev.pop()
    }
}

/// The tasks of `deps` that were created (a zero-row task is `None`).
fn ids(deps: &[Option<TaskId>]) -> impl Iterator<Item = TaskId> + '_ {
    deps.iter().flatten().copied()
}

/// Build the task graph for one inter-frame: Fig 4 read top to bottom.
///
/// `params` must already carry the *effective* reference count (ramp-up at
/// sequence start). `transfers` is a DAM plan — all zero for a CPU core,
/// which is what makes a core's pass the accelerator's without its streams.
/// `overlap = false` is the synchronous per-module execution of the \[9\]
/// baseline: every accelerator's input pairs are submitted up front, and
/// one barrier over them gates all τ1 kernels; with `overlap` each device
/// submits them where Fig 4 does, so its copy engine works under its kernels.
pub fn build_frame_graph(
    dist: &Distribution,
    transfers: &[DeviceTransfers],
    platform: &Platform,
    params: &EncodeParams,
    geo: FrameGeometry,
    overlap: bool,
) -> FrameGraph {
    let nd = platform.len();
    assert_eq!(dist.n_devices(), nd);
    assert_eq!(transfers.len(), nd);
    let mut b = Builder {
        graph: TaskGraph::new(),
        measures: Vec::new(),
        transfers,
        platform,
        params,
        geo,
    };

    let mut early = vec![[[None; 2]; 2]; nd];
    let gate = (!overlap).then(|| {
        for (d, pairs) in early.iter_mut().enumerate() {
            *pairs = [b.inputs(d, ME_INPUTS), b.inputs(d, SME_INPUTS)];
        }
        let all = ids(early.as_flattened().as_flattened()).collect();
        b.graph.barrier(all, "inputs")
    });

    // τ1: RF, CF→ME ▸ INT ∥ ME ▸ SF(RF)→host ▸ CF→SME, σ(RF−1) ▸ MV→host.
    // The FIFO of a CPU core serializes INT→ME.
    let mut tau1_deps = Vec::new();
    for (d, &[me_early, sme_early]) in early.iter().enumerate() {
        let [rf_up, cf_me] = if overlap {
            b.inputs(d, ME_INPUTS)
        } else {
            me_early
        };
        let k_int = b.kernel(d, Module::Interp, dist.interp[d], &[rf_up, gate]);
        let k_me = b.kernel(d, Module::Me, dist.me[d], &[rf_up, cf_me, gate]);
        let sf_down = b.xfer(d, SF_DOWN, &[k_int]);
        let [cf_sme, sig_prev] = if overlap {
            b.inputs(d, SME_INPUTS)
        } else {
            sme_early
        };
        let mv_down = b.xfer(d, MV_ME_DOWN, &[k_me]);
        tau1_deps.extend(ids(&[
            k_int, k_me, sf_down, cf_sme, sig_prev, mv_down, rf_up, cf_me,
        ]));
    }
    let tau1 = b.graph.barrier(tau1_deps, "tau1");

    // τ2: SF Δl, MV Δm ▸ SME ▸ MV(SME)→host, while the R* device prefetches
    // its remaining CF/SF (Fig 5b).
    let rstar = dist.rstar_device;
    let mut tau2_deps = Vec::new();
    for d in 0..nd {
        let sf_dl = b.xfer(d, SF_DL_UP, &[Some(tau1)]);
        let mv_dm = b.xfer(d, MV_DM_UP, &[Some(tau1)]);
        let k_sme = b.kernel(d, Module::Sme, dist.sme[d], &[Some(tau1), sf_dl, mv_dm]);
        let mv_sme = b.xfer(d, MV_SME_DOWN, &[k_sme]);
        if d == rstar {
            let cf_mc = b.xfer(d, CF_MC_UP, &[Some(tau1)]);
            let sf_mc = b.xfer(d, SF_MC_UP, &[Some(tau1)]);
            tau2_deps.extend(ids(&[cf_mc, sf_mc]));
        }
        tau2_deps.extend(ids(&[k_sme, mv_sme]));
    }
    let tau2 = b.graph.barrier(tau2_deps, "tau2");

    // τtot: MV→MC ▸ R* ▸ RF+1→host on the R* accelerator, or (CPU-centric)
    // R* split over all cores — DBL's macroblock wavefront parallelizes
    // across cores in shared memory — and σ to every other accelerator.
    let shares: Vec<(usize, usize)> = if platform.devices[rstar].is_accelerator() {
        vec![(rstar, geo.n_rows)]
    } else {
        let rows = feves_video::geometry::equidistant(geo.n_rows, platform.n_cores);
        (platform.n_accel..).zip(rows).collect()
    };
    let mut tot_deps = Vec::new();
    for (d, rows) in shares {
        let mv_mc = b.xfer(d, MV_MC_UP, &[Some(tau2)]);
        let last = b.rstar(d, rows, &[Some(tau2), mv_mc]);
        let rf_down = b.xfer(d, RF_DOWN, &[last]);
        tot_deps.extend(ids(&[last, rf_down]));
    }
    for d in (0..nd).filter(|&d| d != rstar) {
        tot_deps.extend(b.xfer(d, SIGMA_UP, &[Some(tau2)]));
    }
    tot_deps.push(tau2);
    let tau_tot = b.graph.barrier(tot_deps, "tau_tot");

    FrameGraph {
        graph: b.graph,
        tau1,
        tau2,
        tau_tot,
        measures: b.measures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dam::DataManager;
    use feves_codec::types::SearchArea;
    use feves_hetsim::noise::Deterministic;
    use feves_hetsim::profiles::{cpu_nehalem, gpu_fermi};
    use feves_hetsim::timeline::{simulate, TaskKind};

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

    /// Equidistant with R\* on every accelerator and on the cores, every
    /// single-device distribution, and one uneven split (Δ top-ups) whose σ
    /// budget leaves a remainder for the next frame.
    fn digest_distributions(n_rows: usize, p: &Platform) -> Vec<Distribution> {
        let nd = p.len();
        let skewed = |shift: usize| {
            let w: Vec<f64> = (0..nd).map(|d| ((d + shift) % nd + 1) as f64).collect();
            let sum: f64 = w.iter().sum();
            let fractions: Vec<f64> = w.iter().map(|x| x / sum).collect();
            feves_sched::distribution::round_preserving_sum(&fractions, n_rows)
        };
        let uneven =
            Distribution::from_rows(skewed(0), skewed(2), skewed(3), 0, &vec![3; nd], None);
        (0..=p.n_accel)
            .map(|r| Distribution::equidistant(n_rows, nd, r))
            .chain((0..nd).map(|d| Distribution::single_device(n_rows, nd, d)))
            .chain([uneven])
            .collect()
    }

    /// One digest case: the `Debug` form of its graph, measurement index and
    /// barrier ids appended to `seen`, and the bytes of its transfer tasks
    /// checked against DAM's accounting of the same plan.
    fn observe(
        seen: &mut String,
        p: &Platform,
        geo: FrameGeometry,
        n_ref: usize,
        dist: &Distribution,
        (masked, reuse, overlap): (bool, bool, bool),
    ) {
        use std::fmt::Write;
        let mask: Vec<bool> = (p.devices.iter().enumerate())
            .map(|(d, dev)| dev.is_accelerator() && !(masked && d % 2 == 0))
            .collect();
        let mut dam = DataManager::new(geo.n_rows, p.len());
        dam.commit(dist, &mask, reuse).unwrap();
        let plan = dam.plan(dist, &mask, reuse);
        let params = EncodeParams { n_ref, ..params() };
        let fg = build_frame_graph(dist, &plan, p, &params, geo, overlap);
        let taus = (fg.tau1, fg.tau2, fg.tau_tot);
        write!(seen, "{:?}{:?}{taus:?}", fg.graph, fg.measures).unwrap();
        let moved: u64 = (fg.graph.iter())
            .map(|(_, t)| match t.kind {
                TaskKind::Transfer { bytes, .. } => bytes as u64,
                _ => 0,
            })
            .sum();
        assert_eq!(
            moved,
            crate::dam::transfer_bytes(&plan, geo.width),
            "{} devices, {} rows: graph and DAM disagree on bytes",
            p.len(),
            geo.n_rows
        );
    }

    /// The graphs the goldens never see: `overlap = false`, CPU-centric
    /// R\*, a masked accelerator, Δ top-ups and a carried σʳ. Task creation
    /// order is what the copy-engine FIFOs, flight-log task ids and the
    /// goldens' float sums hang on, so each (platform shape, overlap) pair
    /// pins a CRC-32 over every case it [`observe`]s. The constants were
    /// recorded on the hand-unrolled builder the stream table replaced; a
    /// changed constant is a changed schedule.
    #[test]
    fn graph_digests_are_pinned() {
        // (accelerators, cores, overlap, digest): the shapes of SysHK/SysNF
        // and SysNFF, a three-accelerator host and a CPU-only one — device
        // speeds do not reach the graph.
        const PINNED: [(usize, usize, bool, u32); 8] = [
            (1, 4, true, 0xb1a8_1572),
            (1, 4, false, 0x9c6f_8719),
            (2, 4, true, 0x99cb_8448),
            (2, 4, false, 0xaa3d_0b6b),
            (3, 2, true, 0xbc1b_1e55),
            (3, 2, false, 0xa651_29a7),
            (0, 4, true, 0x61fd_1d8c),
            (0, 4, false, 0xe480_545f),
        ];
        // (alternate accelerators masked, data reuse)
        const PLANS: [(bool, bool); 4] =
            [(false, true), (false, false), (true, true), (true, false)];
        let mut cases = 0;
        for (n_accel, n_cores, overlap, pinned) in PINNED {
            let p = Platform::build(vec![gpu_fermi(); n_accel], &cpu_nehalem(), n_cores);
            let mut seen = String::new();
            for (n_rows, width) in [(9, 176), (45, 1280), (68, 1920)] {
                let geo = FrameGeometry {
                    mb_cols: width / 16,
                    n_rows,
                    width,
                };
                let dists = digest_distributions(n_rows, &p);
                for n_ref in [1, 2] {
                    for dist in &dists {
                        for (masked, reuse) in PLANS {
                            observe(&mut seen, &p, geo, n_ref, dist, (masked, reuse, overlap));
                            cases += 1;
                        }
                    }
                }
            }
            let crc = feves_ft::ckpt::crc32(seen.as_bytes());
            assert_eq!(
                crc, pinned,
                "{n_accel} accelerators + {n_cores} cores, overlap={overlap}: digest {crc:#010x}"
            );
        }
        assert_eq!(cases, 1632);
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
