//! Data Access Management (paper §III-B-2, Fig 5).
//!
//! Tracks which stripes of the shared buffers (CF, RF, SF, MVs) are resident
//! on each accelerator, converts a frame's [`Distribution`] into the exact
//! per-device transfer volumes of Fig 4/5 — including the data-reuse Δ
//! top-ups and the deferred-SF σ/σʳ split — and carries the σʳ remainder
//! into the next frame. CPU cores address host memory directly and never
//! appear in a transfer plan.

use crate::vcm::STREAMS;
use feves_codec::workload::bytes_per_row;
use feves_ft::FevesError;
use feves_hetsim::platform::Platform;
use feves_sched::Distribution;

/// Per-device transfer volumes for one frame, in MB rows, keyed by the
/// Fig 4 stream names; `vcm`'s stream table gives each field its direction
/// and buffer.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct DeviceTransfers {
    /// `RF` — previously reconstructed reference uploaded before ME/INT
    /// (zero for the device that produced the RF).
    pub rf_up: usize,
    /// `SF(RF−1)→SME` — the deferred SF remainder from the previous frame.
    pub sigma_prev_up: usize,
    /// `CF→ME` — current-frame stripe for this device's ME share.
    pub cf_me_up: usize,
    /// `SF(RF)→SME` — freshly interpolated SF stripe sent to the host.
    pub sf_down: usize,
    /// `CF→SME` — extra CF rows for the SME stripe (`Δ^m`).
    pub cf_sme_up: usize,
    /// `MV→SME` (device→host) — ME vectors published to the host.
    pub mv_me_down: usize,
    /// `SF(RF)→SME` (host→device) — extra SF rows for SME (`Δ^l`).
    pub sf_dl_up: usize,
    /// `MV→SME` (host→device) — missing ME vectors (`Δ^m`).
    pub mv_dm_up: usize,
    /// `MV→MC` (device→host) — refined SME vectors published.
    pub mv_sme_down: usize,
    /// `SF→SME+1` — eager part of the remaining SF (`σ`).
    pub sigma_up: usize,
    /// `CF→MC` — remaining CF rows for the R\* device.
    pub cf_mc_up: usize,
    /// `SF→MC` — remaining SF rows for the R\* device.
    pub sf_mc_up: usize,
    /// `MV→MC` (host→device) — SME vectors computed elsewhere.
    pub mv_mc_up: usize,
    /// `RF+1` — reconstructed frame returned to the host.
    pub rf_down: usize,
}

impl DeviceTransfers {
    /// Total bytes this plan moves over PCIe for a frame of `width` luma
    /// pixels, weighting each stream's rows by its per-row footprint
    /// (observability: feeds the `dam.bytes_*` metrics).
    pub fn bytes(&self, width: usize) -> u64 {
        STREAMS
            .iter()
            .map(|s| (s.rows)(self) as u64 * s.bytes_per_row(width) as u64)
            .sum()
    }
}

/// Total bytes a whole per-device transfer plan moves over PCIe for a frame
/// of `width` luma pixels.
pub fn transfer_bytes(plan: &[DeviceTransfers], width: usize) -> u64 {
    plan.iter().map(|t| t.bytes(width)).sum()
}

/// The Data Access Management block.
#[derive(Clone, Debug)]
pub struct DataManager {
    n_rows: usize,
    n_devices: usize,
    /// σʳ carried from the previous frame, per device.
    sigma_rem: Vec<usize>,
    frames_committed: usize,
}

impl DataManager {
    /// Fresh state: nothing resident, nothing deferred.
    pub fn new(n_rows: usize, n_devices: usize) -> Self {
        DataManager {
            n_rows,
            n_devices,
            sigma_rem: vec![0; n_devices],
            frames_committed: 0,
        }
    }

    /// Mutable buffer-residency state for checkpointing: `(σʳ per device,
    /// frames committed)`. Geometry is rebuilt from the config on resume.
    pub fn snapshot(&self) -> (Vec<usize>, usize) {
        (self.sigma_rem.clone(), self.frames_committed)
    }

    /// Overwrite the mutable state from a [`snapshot`]. Fails when the σʳ
    /// vector disagrees with the device count or exceeds the frame height.
    ///
    /// [`snapshot`]: DataManager::snapshot
    pub fn restore_state(
        &mut self,
        sigma_rem: Vec<usize>,
        frames_committed: usize,
    ) -> Result<(), FevesError> {
        if sigma_rem.len() != self.n_devices {
            return Err(FevesError::CheckpointStale(format!(
                "DAM snapshot is for {} devices, platform has {}",
                sigma_rem.len(),
                self.n_devices
            )));
        }
        if sigma_rem.iter().any(|&s| s > self.n_rows) {
            return Err(FevesError::CheckpointCorrupt(
                "DAM σʳ exceeds the frame's row count".into(),
            ));
        }
        self.sigma_rem = sigma_rem;
        self.frames_committed = frames_committed;
        Ok(())
    }

    /// Worst-case resident bytes on an accelerator for a frame of `width`
    /// luma pixels, `n_rows` MB rows and `n_ref` reference frames
    /// (paper §III-B-2: the Data Access Management owns device memory).
    ///
    /// Residency: every RF and its complete SF for all `n_ref` references
    /// (FSBM and SME may touch any of them), the CF, the two MV buffers,
    /// and — for the R\* device — the reconstruction and prediction scratch.
    pub fn device_footprint_bytes(
        n_rows: usize,
        width: usize,
        n_ref: usize,
        is_rstar: bool,
    ) -> u64 {
        let rf = (bytes_per_row::rf(width) * n_rows) as u64;
        let sf = (bytes_per_row::sf(width) * n_rows) as u64;
        let cf = (bytes_per_row::cf(width) * n_rows) as u64;
        let mv = (bytes_per_row::mv(width) * n_rows * 2) as u64;
        (rf + sf) * n_ref as u64 + cf + mv + if is_rstar { 2 * rf + cf } else { 0 }
    }

    /// Validate that every accelerator of `platform` can hold the buffers
    /// this configuration needs (devices with unknown capacity pass).
    pub fn check_memory(
        platform: &Platform,
        n_rows: usize,
        width: usize,
        n_ref: usize,
    ) -> Result<(), FevesError> {
        for (d, dev) in platform.devices.iter().enumerate() {
            if !dev.is_accelerator() {
                continue;
            }
            let Some(cap) = dev.memory_bytes else {
                continue;
            };
            // Any accelerator may be selected for R*: budget for the worst.
            let need = Self::device_footprint_bytes(n_rows, width, n_ref, true);
            if need > cap {
                return Err(FevesError::Memory(format!(
                    "device {d} ({}) needs {:.0} MiB for {n_ref} reference                      frames at width {width} but has {:.0} MiB",
                    dev.name,
                    need as f64 / (1024.0 * 1024.0),
                    cap as f64 / (1024.0 * 1024.0)
                )));
            }
        }
        Ok(())
    }

    /// Compute the per-device transfer volumes for `dist`.
    ///
    /// `is_accelerator[d]` distinguishes devices that need transfers;
    /// `data_reuse = false` disables the Δ/σ reuse machinery (each consumer
    /// fetches its full stripes — the ablation baseline).
    #[allow(clippy::needless_range_loop)] // parallel per-device arrays
    pub fn plan(
        &self,
        dist: &Distribution,
        is_accelerator: &[bool],
        data_reuse: bool,
    ) -> Vec<DeviceTransfers> {
        assert_eq!(is_accelerator.len(), self.n_devices);
        assert_eq!(dist.n_devices(), self.n_devices);
        let n = self.n_rows;
        let mut out = vec![DeviceTransfers::default(); self.n_devices];
        for d in 0..self.n_devices {
            if !is_accelerator[d] {
                continue;
            }
            let t = &mut out[d];
            let is_rstar = dist.rstar_device == d;
            t.cf_me_up = dist.me[d];
            t.sf_down = dist.interp[d];
            t.mv_me_down = dist.me[d];
            // The R* device consumes its own refined MVs locally in MC
            // (eq. 8 has no SME-MV download for GPU₁); everyone else
            // publishes them to the host for the R* device to fetch.
            t.mv_sme_down = if is_rstar { 0 } else { dist.sme[d] };
            if data_reuse {
                t.cf_sme_up = dist.delta_m[d];
                t.sf_dl_up = dist.delta_l[d];
                t.mv_dm_up = dist.delta_m[d];
            } else {
                // No reuse: the SME stripe's inputs are fetched wholesale.
                t.cf_sme_up = dist.sme[d];
                t.sf_dl_up = dist.sme[d];
                t.mv_dm_up = dist.sme[d];
            }
            if is_rstar {
                // Fig 5(b): complete CF and SF arrive during τ2, the
                // missing SME MVs after τ2, RF goes home at the end.
                if data_reuse {
                    t.cf_mc_up = n.saturating_sub(dist.me[d] + dist.delta_m[d]);
                    t.sf_mc_up = n.saturating_sub(dist.interp[d] + dist.delta_l[d]);
                    t.mv_mc_up = n.saturating_sub(dist.sme[d]);
                } else {
                    t.cf_mc_up = n;
                    t.sf_mc_up = n;
                    t.mv_mc_up = n;
                }
                t.rf_down = n;
                // The R* device needs no RF upload (it reconstructs it) and
                // no σ bookkeeping (it receives the full SF for MC).
            } else {
                t.rf_up = n;
                t.sigma_prev_up = self.sigma_rem[d];
                if data_reuse {
                    t.sigma_up = dist.sigma[d];
                } else {
                    // Without deferral the whole missing SF ships now.
                    t.sigma_up = dist.sigma[d] + dist.sigma_rem[d];
                }
            }
        }
        out
    }

    /// Commit a frame: carry its σʳ into the next frame and check SF
    /// conservation (each non-R\* accelerator ends the frame with
    /// `l + Δl + σ` resident rows and `σʳ` outstanding, summing to `N`).
    #[allow(clippy::needless_range_loop)] // parallel per-device arrays
    pub fn commit(
        &mut self,
        dist: &Distribution,
        is_accelerator: &[bool],
        data_reuse: bool,
    ) -> Result<(), FevesError> {
        for d in 0..self.n_devices {
            if !is_accelerator[d] || dist.rstar_device == d {
                continue;
            }
            let resident = dist.interp[d] + dist.delta_l[d] + dist.sigma[d];
            let outstanding = dist.sigma_rem[d];
            if resident + outstanding != self.n_rows {
                return Err(FevesError::Accounting(format!(
                    "device {d}: SF accounting broken: {resident} resident + \
                     {outstanding} deferred != {}",
                    self.n_rows
                )));
            }
        }
        for d in 0..self.n_devices {
            self.sigma_rem[d] = if is_accelerator[d] && dist.rstar_device != d && data_reuse {
                dist.sigma_rem[d]
            } else {
                0
            };
        }
        self.frames_committed += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn accel_mask(n: usize, accels: usize) -> Vec<bool> {
        (0..n).map(|d| d < accels).collect()
    }

    #[test]
    #[allow(clippy::needless_range_loop)]
    fn cpu_cores_never_transfer() {
        let dam = DataManager::new(68, 5);
        let dist = Distribution::equidistant(68, 5, 0);
        let plan = dam.plan(&dist, &accel_mask(5, 1), true);
        for d in 1..5 {
            assert_eq!(
                plan[d],
                DeviceTransfers::default(),
                "core {d} must be silent"
            );
        }
        assert!(plan[0].bytes(1920) > 0);
    }

    #[test]
    fn rstar_device_fetches_remainders_and_returns_rf() {
        let dam = DataManager::new(68, 5);
        let dist = Distribution::equidistant(68, 5, 0);
        let plan = dam.plan(&dist, &accel_mask(5, 1), true);
        let t = &plan[0];
        assert_eq!(t.rf_up, 0, "R* device reconstructs the RF itself");
        assert_eq!(t.rf_down, 68);
        // Equidistant over 5 devices: ~14 rows own; remainder ~54.
        assert_eq!(t.cf_mc_up, 68 - dist.me[0] - dist.delta_m[0]);
        assert_eq!(t.sf_mc_up, 68 - dist.interp[0] - dist.delta_l[0]);
        assert_eq!(t.mv_mc_up, 68 - dist.sme[0]);
    }

    #[test]
    fn non_rstar_accelerator_gets_rf_and_sigma() {
        let dam = DataManager::new(68, 6);
        // Two accelerators: device 0 runs R*, device 1 does not.
        let dist = Distribution::equidistant(68, 6, 0);
        let plan = dam.plan(&dist, &accel_mask(6, 2), true);
        let t = &plan[1];
        assert_eq!(t.rf_up, 68);
        assert_eq!(t.rf_down, 0);
        assert_eq!(t.sigma_up, dist.sigma[1]);
        assert_eq!(t.cf_mc_up, 0);
    }

    #[test]
    fn sigma_remainder_carries_to_next_frame() {
        let mut dam = DataManager::new(68, 6);
        let me = feves_video::geometry::equidistant(68, 6);
        // Cap device 1's eager SF budget to force a remainder.
        let mut budget = vec![usize::MAX; 6];
        budget[1] = 5;
        let dist =
            feves_sched::Distribution::from_rows(me.clone(), me.clone(), me, 0, &budget, None);
        assert!(dist.sigma_rem[1] > 0, "test needs a real remainder");
        dam.commit(&dist, &accel_mask(6, 2), true).unwrap();
        assert_eq!(dam.snapshot().0[1], dist.sigma_rem[1]);
        // Next frame's plan ships the deferred rows first.
        let plan = dam.plan(&dist, &accel_mask(6, 2), true);
        assert_eq!(plan[1].sigma_prev_up, dist.sigma_rem[1]);
    }

    #[test]
    fn no_reuse_mode_ships_full_stripes() {
        let dam = DataManager::new(68, 5);
        let dist = Distribution::equidistant(68, 5, 0);
        let reuse = dam.plan(&dist, &accel_mask(5, 1), true);
        let no_reuse = dam.plan(&dist, &accel_mask(5, 1), false);
        assert!(no_reuse[0].bytes(1920) >= reuse[0].bytes(1920));
        // Equidistant ⇒ Δ = 0, so reuse mode uploads nothing extra for SME.
        assert_eq!(reuse[0].cf_sme_up, 0);
        assert_eq!(no_reuse[0].cf_sme_up, dist.sme[0]);
    }

    #[test]
    fn transfer_bytes_reflects_data_reuse() {
        let dam = DataManager::new(68, 5);
        let dist = Distribution::equidistant(68, 5, 0);
        let reuse = dam.plan(&dist, &accel_mask(5, 1), true);
        let no_reuse = dam.plan(&dist, &accel_mask(5, 1), false);
        let b_reuse = transfer_bytes(&reuse, 1920);
        let b_no_reuse = transfer_bytes(&no_reuse, 1920);
        assert!(b_reuse > 0);
        assert!(
            b_no_reuse > b_reuse,
            "reuse must save bytes: {b_no_reuse} vs {b_reuse}"
        );
        // CPU cores contribute nothing.
        assert_eq!(reuse[1].bytes(1920), 0);
    }

    #[test]
    fn commit_checks_sf_conservation() {
        let mut dam = DataManager::new(68, 6);
        let mut dist = Distribution::equidistant(68, 6, 0);
        dist.sigma_rem[1] = 99; // corrupt the accounting
        assert!(dam.commit(&dist, &accel_mask(6, 2), true).is_err());
    }
}

#[cfg(test)]
mod memory_tests {
    use super::*;
    use feves_hetsim::platform::Platform;
    use feves_video::geometry::Resolution;

    #[test]
    fn footprint_scales_with_refs_and_resolution() {
        let hd1 = DataManager::device_footprint_bytes(68, 1920, 1, false);
        let hd4 = DataManager::device_footprint_bytes(68, 1920, 4, false);
        assert!(hd4 > 3 * hd1 && hd4 < 5 * hd1);
        let uhd1 = DataManager::device_footprint_bytes(136, 3840, 1, false);
        assert!(uhd1 > 3 * hd1, "4K must need ~4x the 1080p footprint");
        // The R* device carries extra scratch.
        assert!(DataManager::device_footprint_bytes(68, 1920, 1, true) > hd1);
    }

    #[test]
    fn paper_configurations_fit_their_cards() {
        // 1080p with up to 8 RFs fits both the 1.5 GB Fermi and 3 GB Kepler.
        for p in [Platform::sys_nf(), Platform::sys_nff(), Platform::sys_hk()] {
            DataManager::check_memory(&p, 68, 1920, 8).unwrap();
        }
    }

    #[test]
    fn uhd_with_many_refs_overflows_fermi() {
        // 4K × 16 RFs: each SF is ~133 MiB; 16 of them blow past 1.5 GB.
        let p = Platform::sys_nf(); // GTX 580, 1.5 GB
        let res = Resolution::new(3840, 2160).padded();
        let n_rows = res.height / 16; // 135
        let r = DataManager::check_memory(&p, n_rows, 3840, 16);
        assert!(r.is_err(), "4K/16RF must not fit a 1.5 GB card");
        // The Kepler card (3 GB) still fits.
        DataManager::check_memory(&Platform::sys_hk(), n_rows, 3840, 16).unwrap();
    }
}
