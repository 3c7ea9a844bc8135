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
    let nd = platform.len();
    assert_eq!(sigma_rem_prev.len(), nd);
    if !perf.is_complete() {
        return Err(LbError::NotCharacterized);
    }
    let n = n_rows as f64;
    let rstar_device = match centric {
        Centric::Gpu(g) => g,
        // CPU-centric: R* collectively on cores; use the first core as the
        // representative index in the Distribution.
        Centric::Cpu => platform.n_accel,
    };

    let mut lp = Problem::new(Sense::Minimize);
    // Globals. Tiny weights keep τ1/τ2 tight (unique optimum) without
    // perturbing τtot.
    let tau1 = lp.add_var("tau1", 1e-6);
    let tau2 = lp.add_var("tau2", 1e-6);
    let tau_tot = lp.add_var("tau_tot", 1.0);

    let m: Vec<VarId> = (0..nd).map(|i| lp.add_var(format!("m{i}"), 0.0)).collect();
    let l: Vec<VarId> = (0..nd).map(|i| lp.add_var(format!("l{i}"), 0.0)).collect();
    let s: Vec<VarId> = (0..nd).map(|i| lp.add_var(format!("s{i}"), 0.0)).collect();

    // (1) distribution sums.
    for v in [&m, &l, &s] {
        let terms: Vec<_> = v.iter().map(|&x| (x, 1.0)).collect();
        lp.add_constraint(&terms, Relation::Eq, n);
    }

    // Δ linearization for accelerators: Δ^m_i = a↑ + a↓ with
    // a↑ ≥ Σ_{j<i} m_j − Σ_{j<i} s_j and a↓ ≥ Σ_{j≤i} s_j − Σ_{j≤i} m_j.
    let mut delta_m_terms: Vec<Vec<(VarId, f64)>> = Vec::with_capacity(nd);
    let mut delta_l_terms: Vec<Vec<(VarId, f64)>> = Vec::with_capacity(nd);
    for i in 0..platform.n_accel {
        let mk = |lp: &mut Problem, name: String| lp.add_var(name, 0.0);
        let (am_up, am_dn) = (
            mk(&mut lp, format!("dm_up{i}")),
            mk(&mut lp, format!("dm_dn{i}")),
        );
        let (al_up, al_dn) = (
            mk(&mut lp, format!("dl_up{i}")),
            mk(&mut lp, format!("dl_dn{i}")),
        );
        // a↑ ≥ M_{i−1} − S_{i−1}  ⇔  Σ_{j<i}(m_j − s_j) − a↑ ≤ 0.
        let mut t: Vec<(VarId, f64)> = Vec::new();
        for j in 0..i {
            t.push((m[j], 1.0));
            t.push((s[j], -1.0));
        }
        t.push((am_up, -1.0));
        lp.add_constraint(&t, Relation::Le, 0.0);
        // a↓ ≥ S_i − M_i  ⇔  Σ_{j≤i}(s_j − m_j) − a↓ ≤ 0.
        let mut t: Vec<(VarId, f64)> = Vec::new();
        for j in 0..=i {
            t.push((s[j], 1.0));
            t.push((m[j], -1.0));
        }
        t.push((am_dn, -1.0));
        lp.add_constraint(&t, Relation::Le, 0.0);
        // Same pair for Δ^l against the INT prefix sums.
        let mut t: Vec<(VarId, f64)> = Vec::new();
        for j in 0..i {
            t.push((l[j], 1.0));
            t.push((s[j], -1.0));
        }
        t.push((al_up, -1.0));
        lp.add_constraint(&t, Relation::Le, 0.0);
        let mut t: Vec<(VarId, f64)> = Vec::new();
        for j in 0..=i {
            t.push((s[j], 1.0));
            t.push((l[j], -1.0));
        }
        t.push((al_dn, -1.0));
        lp.add_constraint(&t, Relation::Le, 0.0);

        delta_m_terms.push(vec![(am_up, 1.0), (am_dn, 1.0)]);
        delta_l_terms.push(vec![(al_up, 1.0), (al_dn, 1.0)]);
    }
    for _ in platform.n_accel..nd {
        delta_m_terms.push(Vec::new());
        delta_l_terms.push(Vec::new());
    }

    // Per-device constraints.
    for i in 0..nd {
        let dev = &platform.devices[i];
        let km = perf.k_me(i).unwrap();
        let kl = perf.k_int(i).unwrap();
        let ks = perf.k_sme(i).unwrap();
        match dev.kind {
            DeviceKind::CpuCore => {
                // (2): m_i·K^m + l_i·K^l ≤ τ1.
                lp.add_constraint(&[(m[i], km), (l[i], kl), (tau1, -1.0)], Relation::Le, 0.0);
                // (3): τ1 + s_i·K^s ≤ τ2.
                lp.add_constraint(&[(tau1, 1.0), (s[i], ks), (tau2, -1.0)], Relation::Le, 0.0);
            }
            DeviceKind::Accelerator(engines) => {
                let k_cf_hd = xfer(perf, i, TransferTag::Cf, Dir::H2d);
                let k_rf_hd = xfer(perf, i, TransferTag::Rf, Dir::H2d);
                let k_rf_dh = xfer(perf, i, TransferTag::Rf, Dir::D2h);
                let k_sf_hd = xfer(perf, i, TransferTag::Sf, Dir::H2d);
                let k_sf_dh = xfer(perf, i, TransferTag::Sf, Dir::D2h);
                let k_mv_hd = xfer(perf, i, TransferTag::Mv, Dir::H2d);
                let k_mv_dh = xfer(perf, i, TransferTag::Mv, Dir::D2h);
                let dm = &delta_m_terms[i];
                let dl = &delta_l_terms[i];
                let is_rstar = matches!(centric, Centric::Gpu(g) if g == i);

                // Helper to extend a term list with Δ terms at a coefficient.
                let with = |base: Vec<(VarId, f64)>, extra: &[(VarId, f64)], coeff: f64| {
                    let mut t = base;
                    for &(v, c) in extra {
                        t.push((v, c * coeff));
                    }
                    t
                };

                if is_rstar {
                    // (4): CF up + ME kernel + MV down, sequenced ≤ τ1.
                    lp.add_constraint(
                        &[(m[i], k_cf_hd + km + k_mv_dh), (tau1, -1.0)],
                        Relation::Le,
                        0.0,
                    );
                    // (5): INT kernel + SF down + CF up (own + Δ) + MV down ≤ τ1.
                    let t = with(
                        vec![
                            (l[i], kl + k_sf_dh),
                            (m[i], k_cf_hd + k_mv_dh),
                            (tau1, -1.0),
                        ],
                        dm,
                        k_cf_hd,
                    );
                    lp.add_constraint(&t, Relation::Le, 0.0);
                    // (6): copy-engine occupancy ≤ τ1.
                    match engines {
                        CopyEngines::Single => {
                            let t = with(
                                vec![(m[i], k_cf_hd + k_mv_dh), (l[i], k_sf_dh), (tau1, -1.0)],
                                dm,
                                k_cf_hd,
                            );
                            lp.add_constraint(&t, Relation::Le, 0.0);
                        }
                        CopyEngines::Dual => {
                            let t = with(vec![(m[i], k_cf_hd), (tau1, -1.0)], dm, k_cf_hd);
                            lp.add_constraint(&t, Relation::Le, 0.0);
                            lp.add_constraint(
                                &[(m[i], k_mv_dh), (l[i], k_sf_dh), (tau1, -1.0)],
                                Relation::Le,
                                0.0,
                            );
                        }
                    }
                    // (7): τ1 + Δl·K^sf_hd + Δm·K^mv_hd + SME ≤ τ2.
                    let t = {
                        let t = with(vec![(tau1, 1.0), (s[i], ks), (tau2, -1.0)], dl, k_sf_hd);
                        with(t, dm, k_mv_hd)
                    };
                    lp.add_constraint(&t, Relation::Le, 0.0);
                    // (8): remaining CF+SF for MC fetched within τ2:
                    // τ1 + Δl·K^sf_hd + (N−m−Δm)K^cf_hd + (N−l−Δl)K^sf_hd
                    //    + Δm·K^mv_hd ≤ τ2.
                    let mut t = vec![
                        (tau1, 1.0),
                        (m[i], -k_cf_hd),
                        (l[i], -k_sf_hd),
                        (tau2, -1.0),
                    ];
                    for &(v, c) in dm {
                        t.push((v, c * (k_mv_hd - k_cf_hd)));
                    }
                    // Δl appears as +K^sf_hd (prefetch) and −K^sf_hd (already
                    // counted in the remaining-SF term): they cancel.
                    lp.add_constraint(&t, Relation::Le, -(n * (k_cf_hd + k_sf_hd)));
                    // (9): τ2 + (N−s)K^mv_hd + T^{R*} + N·K^rf_dh ≤ τtot.
                    let t_rstar = perf.estimate_rstar(i).unwrap_or(0.0);
                    lp.add_constraint(
                        &[(tau2, 1.0), (s[i], -k_mv_hd), (tau_tot, -1.0)],
                        Relation::Le,
                        -(n * k_mv_hd + t_rstar + n * k_rf_dh),
                    );
                } else {
                    let sig_prev = sigma_rem_prev[i] as f64;
                    // (10): RF up + CF up + ME + MV down ≤ τ1.
                    lp.add_constraint(
                        &[(m[i], k_cf_hd + km + k_mv_dh), (tau1, -1.0)],
                        Relation::Le,
                        -(n * k_rf_hd),
                    );
                    // (11): RF up + INT + SF down + σ^{r−1} up + ΔmCF up + MV down ≤ τ1.
                    let t = with(
                        vec![(l[i], kl + k_sf_dh), (m[i], k_mv_dh), (tau1, -1.0)],
                        dm,
                        k_cf_hd,
                    );
                    lp.add_constraint(&t, Relation::Le, -(n * k_rf_hd + sig_prev * k_sf_hd));
                    // (12): copy-engine occupancy ≤ τ1.
                    match engines {
                        CopyEngines::Single => {
                            let t = with(
                                vec![(m[i], k_cf_hd + k_mv_dh), (l[i], k_sf_dh), (tau1, -1.0)],
                                dm,
                                k_cf_hd,
                            );
                            lp.add_constraint(
                                &t,
                                Relation::Le,
                                -(n * k_rf_hd + sig_prev * k_sf_hd),
                            );
                        }
                        CopyEngines::Dual => {
                            let t = with(vec![(m[i], k_cf_hd), (tau1, -1.0)], dm, k_cf_hd);
                            lp.add_constraint(
                                &t,
                                Relation::Le,
                                -(n * k_rf_hd + sig_prev * k_sf_hd),
                            );
                            lp.add_constraint(
                                &[(m[i], k_mv_dh), (l[i], k_sf_dh), (tau1, -1.0)],
                                Relation::Le,
                                0.0,
                            );
                        }
                    }
                    // (13): τ1 + Δl·K^sf_hd + Δm·K^mv_hd + s(K^s + K^mv_dh) ≤ τ2.
                    let t = {
                        let t = with(
                            vec![(tau1, 1.0), (s[i], ks + k_mv_dh), (tau2, -1.0)],
                            dl,
                            k_sf_hd,
                        );
                        with(t, dm, k_mv_hd)
                    };
                    lp.add_constraint(&t, Relation::Le, 0.0);
                    // (14)/(15): σ_i = MIN(N − l_i − Δl_i, (τtot − τ2)/K^sf_hd),
                    // σʳ_i = N − l_i − Δl_i − σ_i ≥ 0. Linearized: σ bounded
                    // by both terms, pulled upward by the objective.
                    let sigma = lp.add_var(format!("sigma{i}"), -1e-9);
                    let t = with(vec![(sigma, 1.0), (l[i], 1.0)], dl, 1.0);
                    lp.add_constraint(&t, Relation::Le, n);
                    lp.add_constraint(
                        &[(sigma, k_sf_hd), (tau2, 1.0), (tau_tot, -1.0)],
                        Relation::Le,
                        0.0,
                    );
                }
            }
        }
    }

    // CPU-centric R*: the cores run MC+TQ+TQ⁻¹+DBL after τ2.
    if matches!(centric, Centric::Cpu) {
        let core0 = platform.n_accel;
        let t_rstar = perf.estimate_rstar(core0).unwrap_or(0.0);
        lp.add_constraint(&[(tau2, 1.0), (tau_tot, -1.0)], Relation::Le, -t_rstar);
    }

    let sol = lp.solve().map_err(LbError::Lp)?;

    // Round to integer MB rows preserving sums, then rebuild the dependent
    // quantities (Δ, σ, σʳ) from the *rounded* vectors so the Distribution
    // is self-consistent.
    let mf: Vec<f64> = m.iter().map(|&v| sol.value(v)).collect();
    let lf: Vec<f64> = l.iter().map(|&v| sol.value(v)).collect();
    let sf: Vec<f64> = s.iter().map(|&v| sol.value(v)).collect();
    let me = round_preserving_sum(&mf, n_rows);
    let li = round_preserving_sum(&lf, n_rows);
    let sm = round_preserving_sum(&sf, n_rows);

    let predicted = PredictedTimes {
        tau1: sol.value(tau1),
        tau2: sol.value(tau2),
        tau_tot: sol.value(tau_tot),
    };
    // σ budget per device: how many SF rows fit into τtot − τ2 (accelerators
    // not running R*); everything eagerly for the rest.
    let budget: Vec<usize> = (0..nd)
        .map(|i| {
            let dev = &platform.devices[i];
            let is_rstar_gpu = matches!(centric, Centric::Gpu(g) if g == i);
            if dev.is_accelerator() && !is_rstar_gpu {
                let k_sf_hd = xfer(perf, i, TransferTag::Sf, Dir::H2d);
                let window = (predicted.tau_tot - predicted.tau2).max(0.0);
                (window / k_sf_hd).floor() as usize
            } else {
                usize::MAX
            }
        })
        .collect();
    // Per-device predictions from the *rounded* rows × characterized rates:
    // what each device should be busy for if its characterization holds.
    let predicted_device: Vec<DevicePrediction> = (0..nd)
        .map(|i| DevicePrediction {
            phase1: me[i] as f64 * perf.k_me(i).unwrap() + li[i] as f64 * perf.k_int(i).unwrap(),
            phase2: sm[i] as f64 * perf.k_sme(i).unwrap(),
            rstar: if i == rstar_device {
                perf.estimate_rstar(i).unwrap_or(0.0)
            } else {
                0.0
            },
        })
        .collect();
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
