//! The FEVES Load Balancing routine (paper Algorithm 2): a linear program
//! that distributes ME/INT/SME rows across all devices so that the total
//! inter-frame time τtot is minimized, subject to per-device compute and
//! copy-engine occupancy constraints at the synchronization points τ1/τ2 of
//! Fig 4 and the buffer states of Fig 5.
//!
//! Variable map (per device `i`, all ≥ 0): `m_i`, `l_i`, `s_i`; globally
//! τ1, τ2, τtot. For accelerators additionally the linearized extra-transfer
//! amounts `Δ^m_i = a↑_i + a↓_i`, `Δ^l_i = b↑_i + b↓_i` (eqs. 16/17 become
//! `a↑_i ≥ M_{i−1} − S_{i−1}`, `a↓_i ≥ S_i − M_i`, etc., with `M`, `S`
//! prefix sums in enumeration order — exact because the Δ terms only appear
//! on the *load* side of ≤-constraints under a minimized objective), and for
//! non-R\* accelerators the deferred-SF split `σ_i`, `σʳ_i` (eqs. 14/15,
//! with the MIN linearized as two upper bounds and σ pulled up by a small
//! negative objective weight).
//!
//! Dual-copy-engine accelerators get their occupancy constraints split per
//! direction — the §III-A "transfers in different directions can overlap"
//! refinement.

use crate::distribution::{round_preserving_sum, DevicePrediction, Distribution, PredictedTimes};
use crate::perfchar::PerfChar;
use feves_hetsim::device::{CopyEngines, DeviceKind};
use feves_hetsim::platform::Platform;
use feves_hetsim::timeline::{Dir, TransferTag};
use feves_lp::{Problem, Relation, Sense, VarId};

/// Where the `R*` group executes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Centric {
    /// `R*` on one accelerator (the paper's primary configuration).
    Gpu(usize),
    /// `R*` on the CPU cores.
    Cpu,
}

/// Errors from the LP balancer.
#[derive(Debug, PartialEq)]
pub enum LbError {
    /// Performance characterization incomplete (run the equidistant frame
    /// first — Algorithm 1 line 3).
    NotCharacterized,
    /// The LP could not be solved.
    Lp(feves_lp::LpError),
}

impl std::fmt::Display for LbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LbError::NotCharacterized => write!(f, "performance characterization incomplete"),
            LbError::Lp(e) => write!(f, "load-balancing LP failed: {e}"),
        }
    }
}

impl std::error::Error for LbError {}

/// Transfer-rate lookup with graceful fallbacks: unmeasured directions
/// borrow the opposite direction's rate, unmeasured buffers borrow a
/// same-sized buffer's rate (RF ↔ CF stripes have identical layout).
fn xfer(perf: &PerfChar, d: usize, tag: TransferTag, dir: Dir) -> f64 {
    let direct = perf.k_transfer(d, tag, dir);
    if let Some(v) = direct {
        return v;
    }
    let flip = |dir: Dir| match dir {
        Dir::H2d => Dir::D2h,
        Dir::D2h => Dir::H2d,
    };
    let alias = match tag {
        TransferTag::Rf => Some(TransferTag::Cf),
        TransferTag::Cf => Some(TransferTag::Rf),
        _ => None,
    };
    perf.k_transfer(d, tag, flip(dir))
        .or_else(|| alias.and_then(|a| perf.k_transfer(d, a, dir)))
        .or_else(|| alias.and_then(|a| perf.k_transfer(d, a, flip(dir))))
        .unwrap_or(1e-6) // last resort: ~free (measurement arrives next frame)
}

/// A device's characterized per-row kernel times.
struct Kernels {
    me: f64,
    int: f64,
    sme: f64,
}

impl Kernels {
    fn of(perf: &PerfChar, d: usize) -> Self {
        const WHY: &str = "`solve` checked that every device is characterized";
        Kernels {
            me: perf.k_me(d).expect(WHY),
            int: perf.k_int(d).expect(WHY),
            sme: perf.k_sme(d).expect(WHY),
        }
    }
}

/// An accelerator's per-row transfer times, by buffer and direction
/// (`K^cf_hd`, …, `K^mv_dh`).
struct Link {
    cf_hd: f64,
    rf_hd: f64,
    rf_dh: f64,
    sf_hd: f64,
    sf_dh: f64,
    mv_hd: f64,
    mv_dh: f64,
}

impl Link {
    fn of(perf: &PerfChar, d: usize) -> Self {
        let k = |tag, dir| xfer(perf, d, tag, dir);
        Link {
            cf_hd: k(TransferTag::Cf, Dir::H2d),
            rf_hd: k(TransferTag::Rf, Dir::H2d),
            rf_dh: k(TransferTag::Rf, Dir::D2h),
            sf_hd: k(TransferTag::Sf, Dir::H2d),
            sf_dh: k(TransferTag::Sf, Dir::D2h),
            mv_hd: k(TransferTag::Mv, Dir::H2d),
            mv_dh: k(TransferTag::Mv, Dir::D2h),
        }
    }
}

type Terms = Vec<(VarId, f64)>;

/// `t` plus the two halves of a Δ, each at coefficient `k`.
fn plus(mut t: Terms, delta: [VarId; 2], k: f64) -> Terms {
    t.extend(delta.map(|v| (v, k)));
    t
}

/// (16)/(17) for accelerator `i`: `Δ_i = a↑ + a↓` against the prefix sums
/// of `x` (m for Δᵐ, l for Δˡ) and s, with `a↑ ≥ X_{i−1} − S_{i−1}` and
/// `a↓ ≥ S_i − X_i` — exact because Δ only loads ≤-constraints under a
/// minimized objective.
fn delta(lp: &mut Problem, x: &[VarId], s: &[VarId], i: usize) -> [VarId; 2] {
    let (up, dn) = (lp.add_var(0.0), lp.add_var(0.0));
    let mut t: Terms = (0..i).flat_map(|j| [(x[j], 1.0), (s[j], -1.0)]).collect();
    t.push((up, -1.0));
    lp.add_constraint(&t, Relation::Le, 0.0);
    let mut t: Terms = (0..=i).flat_map(|j| [(s[j], 1.0), (x[j], -1.0)]).collect();
    t.push((dn, -1.0));
    lp.add_constraint(&t, Relation::Le, 0.0);
    [up, dn]
}

/// The LP of Algorithm 2 under construction: its globals τ1, τ2, τtot, the
/// distribution vectors m, l, s, and each accelerator's Δᵐ and Δˡ.
struct Model {
    lp: Problem,
    n: f64,
    tau1: VarId,
    tau2: VarId,
    tau_tot: VarId,
    m: Vec<VarId>,
    l: Vec<VarId>,
    s: Vec<VarId>,
    dm: Vec<[VarId; 2]>,
    dl: Vec<[VarId; 2]>,
}

impl Model {
    /// The globals, (1) the row sums, and (16)/(17) for every accelerator.
    fn new(n: f64, platform: &Platform) -> Self {
        let mut lp = Problem::new(Sense::Minimize);
        // Tiny weights keep τ1/τ2 tight (unique optimum) without perturbing
        // τtot.
        let tau1 = lp.add_var(1e-6);
        let tau2 = lp.add_var(1e-6);
        let tau_tot = lp.add_var(1.0);
        let vars = |lp: &mut Problem| (0..platform.len()).map(|_| lp.add_var(0.0)).collect();
        let m: Vec<VarId> = vars(&mut lp);
        let l: Vec<VarId> = vars(&mut lp);
        let s: Vec<VarId> = vars(&mut lp);
        for v in [&m, &l, &s] {
            let terms: Terms = v.iter().map(|&x| (x, 1.0)).collect();
            lp.add_constraint(&terms, Relation::Eq, n);
        }
        let (mut dm, mut dl) = (Vec::new(), Vec::new());
        for i in 0..platform.n_accel {
            dm.push(delta(&mut lp, &m, &s, i));
            dl.push(delta(&mut lp, &l, &s, i));
        }
        Model {
            lp,
            n,
            tau1,
            tau2,
            tau_tot,
            m,
            l,
            s,
            dm,
            dl,
        }
    }

    /// Add `Σ terms ≤ rhs`.
    fn le(&mut self, terms: &[(VarId, f64)], rhs: f64) {
        self.lp.add_constraint(terms, Relation::Le, rhs);
    }

    /// (2) `m·K^m + l·K^l ≤ τ1` and (3) `τ1 + s·K^s ≤ τ2` on core `i`.
    fn core(&mut self, i: usize, k: Kernels) {
        let (m, l, s) = (self.m[i], self.l[i], self.s[i]);
        self.le(&[(m, k.me), (l, k.int), (self.tau1, -1.0)], 0.0);
        self.le(&[(self.tau1, 1.0), (s, k.sme), (self.tau2, -1.0)], 0.0);
    }

    /// (6)/(12): accelerator `i`'s copy-engine occupancy before τ1. One
    /// engine carries CF up (own + Δᵐ), MV and SF down; two engines split
    /// it per direction (§III-A). `up` is the constant upload term: 0 on
    /// the R\* accelerator, `−(N·K^rf_hd + σ^{r−1}·K^sf_hd)` elsewhere.
    fn copy_engines(&mut self, i: usize, engines: CopyEngines, x: &Link, up: f64) {
        let (m, l, tau1) = (self.m[i], self.l[i], self.tau1);
        match engines {
            CopyEngines::Single => {
                let t = vec![(m, x.cf_hd + x.mv_dh), (l, x.sf_dh), (tau1, -1.0)];
                self.le(&plus(t, self.dm[i], x.cf_hd), up);
            }
            CopyEngines::Dual => {
                self.le(
                    &plus(vec![(m, x.cf_hd), (tau1, -1.0)], self.dm[i], x.cf_hd),
                    up,
                );
                self.le(&[(m, x.mv_dh), (l, x.sf_dh), (tau1, -1.0)], 0.0);
            }
        }
    }

    /// (4)–(9) on the accelerator `i` that runs R\* (`t_rstar` long).
    fn rstar(&mut self, i: usize, k: Kernels, x: &Link, engines: CopyEngines, t_rstar: f64) {
        let (m, l, s, n) = (self.m[i], self.l[i], self.s[i], self.n);
        let (dm, dl) = (self.dm[i], self.dl[i]);
        let (tau1, tau2, tau_tot) = (self.tau1, self.tau2, self.tau_tot);
        // (4): CF up + ME kernel + MV down, sequenced ≤ τ1.
        self.le(&[(m, x.cf_hd + k.me + x.mv_dh), (tau1, -1.0)], 0.0);
        // (5): INT kernel + SF down + CF up (own + Δ) + MV down ≤ τ1.
        let t = vec![(l, k.int + x.sf_dh), (m, x.cf_hd + x.mv_dh), (tau1, -1.0)];
        self.le(&plus(t, dm, x.cf_hd), 0.0);
        self.copy_engines(i, engines, x, 0.0);
        // (7): τ1 + Δˡ·K^sf_hd + Δᵐ·K^mv_hd + SME ≤ τ2.
        let t = plus(vec![(tau1, 1.0), (s, k.sme), (tau2, -1.0)], dl, x.sf_hd);
        self.le(&plus(t, dm, x.mv_hd), 0.0);
        // (8): remaining CF+SF for MC fetched within τ2:
        // τ1 + Δˡ·K^sf_hd + (N−m−Δᵐ)K^cf_hd + (N−l−Δˡ)K^sf_hd + Δᵐ·K^mv_hd ≤ τ2.
        // Δˡ appears as +K^sf_hd (prefetch) and −K^sf_hd (already counted in
        // the remaining-SF term): they cancel.
        let t = vec![(tau1, 1.0), (m, -x.cf_hd), (l, -x.sf_hd), (tau2, -1.0)];
        self.le(&plus(t, dm, x.mv_hd - x.cf_hd), -(n * (x.cf_hd + x.sf_hd)));
        // (9): τ2 + (N−s)K^mv_hd + T^{R*} + N·K^rf_dh ≤ τtot.
        let t = [(tau2, 1.0), (s, -x.mv_hd), (tau_tot, -1.0)];
        self.le(&t, -(n * x.mv_hd + t_rstar + n * x.rf_dh));
    }

    /// (10)–(15) on an accelerator `i` that does not run R\*, carrying
    /// `sig_prev` SF rows deferred by the previous frame.
    fn peer(&mut self, i: usize, k: Kernels, x: &Link, engines: CopyEngines, sig_prev: f64) {
        let (m, l, s, n) = (self.m[i], self.l[i], self.s[i], self.n);
        let (dm, dl) = (self.dm[i], self.dl[i]);
        let (tau1, tau2, tau_tot) = (self.tau1, self.tau2, self.tau_tot);
        // (10): RF up + CF up + ME + MV down ≤ τ1.
        self.le(
            &[(m, x.cf_hd + k.me + x.mv_dh), (tau1, -1.0)],
            -(n * x.rf_hd),
        );
        // (11): RF up + INT + SF down + σ^{r−1} up + Δᵐ CF up + MV down ≤ τ1.
        let up = -(n * x.rf_hd + sig_prev * x.sf_hd);
        let t = vec![(l, k.int + x.sf_dh), (m, x.mv_dh), (tau1, -1.0)];
        self.le(&plus(t, dm, x.cf_hd), up);
        self.copy_engines(i, engines, x, up);
        // (13): τ1 + Δˡ·K^sf_hd + Δᵐ·K^mv_hd + s(K^s + K^mv_dh) ≤ τ2.
        let t = plus(
            vec![(tau1, 1.0), (s, k.sme + x.mv_dh), (tau2, -1.0)],
            dl,
            x.sf_hd,
        );
        self.le(&plus(t, dm, x.mv_hd), 0.0);
        // (14)/(15): σ = MIN(N − l − Δˡ, (τtot − τ2)/K^sf_hd) and
        // σʳ = N − l − Δˡ − σ ≥ 0, linearized: σ bounded by both terms and
        // pulled upward by the objective.
        let sigma = self.lp.add_var(-1e-9);
        self.le(&plus(vec![(sigma, 1.0), (l, 1.0)], dl, 1.0), n);
        self.le(&[(sigma, x.sf_hd), (tau2, 1.0), (tau_tot, -1.0)], 0.0);
    }
}

/// Solve Algorithm 2. `sigma_rem_prev[i]` is last frame's `σʳ` (the
/// `σ^{r−1}` input), `centric` fixes the R\* mapping (chosen beforehand by
/// the Dijkstra routine, paper §III-B).
pub fn solve(
    n_rows: usize,
    platform: &Platform,
    perf: &PerfChar,
    centric: Centric,
    sigma_rem_prev: &[usize],
) -> Result<Distribution, LbError> {
    assert_eq!(sigma_rem_prev.len(), platform.len());
    if !perf.is_complete() {
        return Err(LbError::NotCharacterized);
    }
    let rstar_device = match centric {
        Centric::Gpu(g) => g,
        // CPU-centric: R* collectively on cores; use the first core as the
        // representative index in the Distribution.
        Centric::Cpu => platform.n_accel,
    };
    let t_rstar = |i: usize| perf.estimate_rstar(i).unwrap_or(0.0);

    let mut model = Model::new(n_rows as f64, platform);
    for (i, dev) in platform.devices.iter().enumerate() {
        let k = Kernels::of(perf, i);
        match dev.kind {
            DeviceKind::CpuCore => model.core(i, k),
            DeviceKind::Accelerator(engines) if i == rstar_device => {
                model.rstar(i, k, &Link::of(perf, i), engines, t_rstar(i));
            }
            DeviceKind::Accelerator(engines) => {
                let sig_prev = sigma_rem_prev[i] as f64;
                model.peer(i, k, &Link::of(perf, i), engines, sig_prev);
            }
        }
    }
    if centric == Centric::Cpu {
        // CPU-centric R*: the cores run MC+TQ+TQ⁻¹+DBL after τ2.
        let t = [(model.tau2, 1.0), (model.tau_tot, -1.0)];
        model.le(&t, -t_rstar(rstar_device));
    }
    let sol = model.lp.solve().map_err(LbError::Lp)?;

    // Round to integer MB rows preserving sums, then rebuild the dependent
    // quantities (Δ, σ, σʳ) from the *rounded* vectors so the Distribution
    // is self-consistent.
    let rows = |v: &[VarId]| {
        let exact: Vec<f64> = v.iter().map(|&x| sol.value(x)).collect();
        round_preserving_sum(&exact, n_rows)
    };
    let (me, li, sm) = (rows(&model.m), rows(&model.l), rows(&model.s));
    let predicted = PredictedTimes {
        tau1: sol.value(model.tau1),
        tau2: sol.value(model.tau2),
        tau_tot: sol.value(model.tau_tot),
    };
    // Per device: the σ budget — how many SF rows fit into τtot − τ2 on an
    // accelerator not running R*, everything eagerly elsewhere — and what
    // the device should be busy for from the *rounded* rows × its
    // characterized rates.
    let window = (predicted.tau_tot - predicted.tau2).max(0.0);
    let (budget, predicted_device): (Vec<usize>, Vec<DevicePrediction>) = (platform.devices)
        .iter()
        .enumerate()
        .map(|(i, dev)| {
            let budget = if dev.is_accelerator() && i != rstar_device {
                (window / xfer(perf, i, TransferTag::Sf, Dir::H2d)).floor() as usize
            } else {
                usize::MAX
            };
            let k = Kernels::of(perf, i);
            let prediction = DevicePrediction {
                phase1: me[i] as f64 * k.me + li[i] as f64 * k.int,
                phase2: sm[i] as f64 * k.sme,
                rstar: if i == rstar_device { t_rstar(i) } else { 0.0 },
            };
            (budget, prediction)
        })
        .unzip();
    let mut dist = Distribution::from_rows(me, li, sm, rstar_device, &budget, Some(predicted));
    dist.predicted_device = Some(predicted_device);
    dist.lp_iterations = Some(sol.iterations());
    debug_assert!(dist.validate(n_rows).is_ok());
    Ok(dist)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::perfchar::Ewma;
    use feves_codec::types::Module;
    use feves_hetsim::device::DeviceProfile;

    /// Characterize a platform from its *true* profiles (as if an
    /// equidistant frame had been measured noise-free).
    pub fn perfect_perfchar(platform: &Platform, me_units_per_row: f64) -> PerfChar {
        let mut pc = PerfChar::new(platform.len(), Ewma(1.0));
        let mb_cols = 120.0;
        for (i, dev) in platform.devices.iter().enumerate() {
            let t_me = dev.compute_time(Module::Me, me_units_per_row, 1.0);
            let t_int = dev.compute_time(Module::Interp, mb_cols, 1.0);
            let t_sme = dev.compute_time(Module::Sme, mb_cols, 1.0);
            pc.record_compute(i, Module::Me, 1, t_me);
            pc.record_compute(i, Module::Interp, 1, t_int);
            pc.record_compute(i, Module::Sme, 1, t_sme);
            let t_rstar: f64 = [Module::Mc, Module::Tq, Module::Itq, Module::Dbl]
                .iter()
                .map(|&m| dev.compute_time(m, mb_cols * 68.0, 1.0))
                .sum();
            pc.record_rstar(i, t_rstar);
            if let Some(link) = dev.link {
                use feves_codec::workload::bytes_per_row as bpr;
                for (tag, bytes) in [
                    (TransferTag::Cf, bpr::cf(1920)),
                    (TransferTag::Rf, bpr::rf(1920)),
                    (TransferTag::Sf, bpr::sf(1920)),
                    (TransferTag::Mv, bpr::mv(1920)),
                ] {
                    pc.record_transfer(i, tag, Dir::H2d, 1, link.transfer_time(bytes, true));
                    pc.record_transfer(i, tag, Dir::D2h, 1, link.transfer_time(bytes, false));
                }
            }
        }
        pc
    }

    fn me_units(sa: u16, n_ref: usize) -> f64 {
        120.0 * (sa as f64) * (sa as f64) * n_ref as f64
    }

    /// Append one solve's outcome to `seen`: the rounded m, l, s, Δ, σ, σʳ
    /// vectors, τ1, τ2, τtot and the per-device predictions as `f64` bits,
    /// and the pivot count.
    fn observe_solve(seen: &mut Vec<u8>, d: Distribution) {
        for v in [
            &d.me,
            &d.interp,
            &d.sme,
            &d.delta_m,
            &d.delta_l,
            &d.sigma,
            &d.sigma_rem,
        ] {
            for &x in v {
                seen.extend_from_slice(&(x as f64).to_bits().to_le_bytes());
            }
        }
        let pred = d.predicted.expect("the LP predicts its times");
        let devices = d.predicted_device.expect("the LP predicts each device");
        let per_device = devices.iter().flat_map(|p| [p.phase1, p.phase2, p.rstar]);
        for t in [pred.tau1, pred.tau2, pred.tau_tot]
            .into_iter()
            .chain(per_device)
        {
            seen.extend_from_slice(&t.to_bits().to_le_bytes());
        }
        seen.extend_from_slice(&(d.rstar_device as u64).to_le_bytes());
        seen.extend_from_slice(&(d.lp_iterations.unwrap() as u64).to_le_bytes());
    }

    /// The LP's rounded output and pivot count hang on the order in which
    /// its variables and constraints are created and on every coefficient's
    /// float value. Each platform shape pins a CRC-32 over every solve of
    /// its grid: SA 8 and 32, every centric choice, σʳ⁻¹ zero and not, and
    /// three frame heights. A changed constant is a changed distribution.
    #[test]
    fn solve_digests_are_pinned() {
        use feves_hetsim::profiles::{cpu_nehalem, gpu_fermi, gpu_kepler};
        let two_cores = |gpu: DeviceProfile| Platform::build(vec![gpu], &cpu_nehalem(), 2);
        let three = vec![gpu_fermi(), gpu_kepler(), gpu_fermi()];
        let pinned: [(&str, Platform, u32); 9] = [
            ("SysHK", Platform::sys_hk(), 0x028e_da75),
            ("SysNF", Platform::sys_nf(), 0x874f_37af),
            ("SysNFF", Platform::sys_nff(), 0x025e_1d29),
            (
                "3 accelerators + 2 cores",
                Platform::build(three, &cpu_nehalem(), 2),
                0x8935_587e,
            ),
            ("Single engine", two_cores(gpu_fermi()), 0x6a8e_37e5),
            (
                "Single engine, shared link",
                two_cores(gpu_fermi()).with_shared_host_link(),
                0x6a8e_37e5,
            ),
            ("Dual engine", two_cores(gpu_kepler()), 0x5dc4_a4d1),
            (
                "Dual engine, shared link",
                two_cores(gpu_kepler()).with_shared_host_link(),
                0x5dc4_a4d1,
            ),
            (
                "CPU only",
                Platform::cpu_only(cpu_nehalem(), 4),
                0x7d05_83ef,
            ),
        ];
        let mut cases = 0;
        for (name, p, digest) in pinned {
            let centrics: Vec<Centric> = (0..p.n_accel)
                .map(Centric::Gpu)
                .chain([Centric::Cpu])
                .collect();
            let carried: Vec<usize> = (0..p.len()).map(|i| (i * 5 + 2) % 7).collect();
            let mut seen = Vec::new();
            for sa in [8, 32] {
                let pc = perfect_perfchar(&p, me_units(sa, 1));
                for &centric in &centrics {
                    for sigma_prev in [vec![0; p.len()], carried.clone()] {
                        for n_rows in [9, 45, 68] {
                            let d = solve(n_rows, &p, &pc, centric, &sigma_prev).unwrap();
                            observe_solve(&mut seen, d);
                            cases += 1;
                        }
                    }
                }
            }
            let crc = feves_ft::ckpt::crc32(&seen);
            assert_eq!(crc, digest, "{name}: digest {crc:#010x}");
        }
        assert_eq!(cases, 240);
    }

    #[test]
    fn requires_characterization() {
        let p = Platform::sys_hk();
        let pc = PerfChar::new(p.len(), Ewma(1.0));
        let r = solve(68, &p, &pc, Centric::Gpu(0), &vec![0; p.len()]);
        assert_eq!(r.unwrap_err(), LbError::NotCharacterized);
    }

    #[test]
    fn syshk_distribution_is_valid_and_gpu_heavy() {
        let p = Platform::sys_hk();
        let pc = perfect_perfchar(&p, me_units(32, 1));
        let d = solve(68, &p, &pc, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        d.validate(68).unwrap();
        // The GPU is ~3x the whole CPU: it must take the lion's share.
        assert!(d.me[0] > 40, "GPU should take most ME rows, got {:?}", d.me);
        // The CPU cores collectively contribute a real share (the LP may
        // leave an individual core empty at a degenerate vertex).
        assert!(
            d.me[1..].iter().sum::<usize>() >= 8,
            "cores barely used: {:?}",
            d.me
        );
        let pred = d.predicted.unwrap();
        assert!(pred.tau1 > 0.0 && pred.tau1 <= pred.tau2 && pred.tau2 <= pred.tau_tot);
    }

    #[test]
    fn per_device_predictions_match_rows_times_rates() {
        let p = Platform::sys_hk();
        let pc = perfect_perfchar(&p, me_units(32, 1));
        let d = solve(68, &p, &pc, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        let pd = d.predicted_device.as_ref().expect("LP fills predictions");
        assert_eq!(pd.len(), p.len());
        for (i, pdi) in pd.iter().enumerate() {
            let phase1 =
                d.me[i] as f64 * pc.k_me(i).unwrap() + d.interp[i] as f64 * pc.k_int(i).unwrap();
            let phase2 = d.sme[i] as f64 * pc.k_sme(i).unwrap();
            assert!((pdi.phase1 - phase1).abs() < 1e-12, "device {i} phase1");
            assert!((pdi.phase2 - phase2).abs() < 1e-12, "device {i} phase2");
            if i == d.rstar_device {
                assert!(pdi.rstar > 0.0, "R* device carries T^R*");
            } else {
                assert_eq!(pdi.rstar, 0.0);
            }
            assert!(pdi.busy().is_finite() && pdi.busy() >= 0.0);
        }
        // A device's predicted busy never exceeds the global τtot prediction
        // (it is a lower bound by construction — no waits included).
        let tau_tot = d.predicted.unwrap().tau_tot;
        for (i, p) in pd.iter().enumerate() {
            assert!(
                p.phase1 + p.phase2 <= tau_tot + 1e-9,
                "device {i} busier than the frame: {} > {tau_tot}",
                p.busy()
            );
        }
    }

    #[test]
    fn predicted_time_beats_single_device() {
        // τtot of the collaborative solution must undercut the GPU-only
        // frame time (that is the whole point of the framework).
        let p = Platform::sys_hk();
        let pc = perfect_perfchar(&p, me_units(32, 1));
        let d = solve(68, &p, &pc, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        let gpu_alone: f64 =
            68.0 * (pc.k_me(0).unwrap() + pc.k_int(0).unwrap() + pc.k_sme(0).unwrap());
        let pred = d.predicted.unwrap();
        assert!(
            pred.tau_tot < gpu_alone,
            "collaboration ({:.1} ms) must beat GPU-only compute ({:.1} ms)",
            pred.tau_tot * 1e3,
            gpu_alone * 1e3
        );
    }

    #[test]
    fn faster_device_gets_more_rows() {
        let p = Platform::sys_nff();
        let pc = perfect_perfchar(&p, me_units(32, 1));
        let d = solve(68, &p, &pc, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        d.validate(68).unwrap();
        // Each GPU_F beats a CPU_N core by a wide margin.
        assert!(d.me[0] + d.me[1] > d.me[2..].iter().sum::<usize>());
    }

    #[test]
    fn cpu_centric_variant_solves() {
        let p = Platform::sys_nf();
        let pc = perfect_perfchar(&p, me_units(32, 1));
        let d = solve(68, &p, &pc, Centric::Cpu, &vec![0; p.len()]).unwrap();
        d.validate(68).unwrap();
        assert_eq!(d.rstar_device, p.n_accel);
    }

    #[test]
    fn sigma_rem_carries_load_into_next_frame() {
        // With two accelerators, the non-R* one defers SF rows when the
        // τtot − τ2 window is short; its σ + σʳ bookkeeping must hold.
        let p = Platform::sys_nff();
        let pc = perfect_perfchar(&p, me_units(32, 1));
        let d = solve(68, &p, &pc, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        d.validate(68).unwrap();
        // Feeding σʳ back as the next frame's input must also solve.
        let d2 = solve(68, &p, &pc, Centric::Gpu(0), &d.sigma_rem).unwrap();
        d2.validate(68).unwrap();
    }

    #[test]
    fn heavier_me_load_shifts_work_to_gpu() {
        let p = Platform::sys_hk();
        let pc32 = perfect_perfchar(&p, me_units(32, 1));
        let pc256 = perfect_perfchar(&p, me_units(256, 1));
        let d32 = solve(68, &p, &pc32, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        let d256 = solve(68, &p, &pc256, Centric::Gpu(0), &vec![0; p.len()]).unwrap();
        let pred32 = d32.predicted.unwrap().tau_tot;
        let pred256 = d256.predicted.unwrap().tau_tot;
        assert!(
            pred256 > pred32 * 20.0,
            "256² SA must be far slower: {pred32} vs {pred256}"
        );
    }
}
