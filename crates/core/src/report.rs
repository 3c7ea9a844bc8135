//! Per-frame and per-sequence encoding reports.

use feves_obs::percentile_exact;
use feves_sched::Distribution;
use serde::{Deserialize, Serialize};

/// Percentile rollup of one per-frame series (exact nearest-rank over the
/// recorded values, not histogram-bucketed).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct Rollup {
    /// Median.
    pub p50: f64,
    /// 95th percentile.
    pub p95: f64,
    /// 99th percentile.
    pub p99: f64,
}

impl Rollup {
    /// Compute from a series; `None` when empty.
    pub fn from_values(mut values: Vec<f64>) -> Option<Self> {
        if values.is_empty() {
            return None;
        }
        Some(Rollup {
            p50: percentile_exact(&mut values, 50.0),
            p95: percentile_exact(&mut values, 95.0),
            p99: percentile_exact(&mut values, 99.0),
        })
    }
}

/// Everything recorded about one encoded frame.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct FrameReport {
    /// Inter-frame index (1-based, as in Fig 7); 0 for the I-frame.
    pub frame: usize,
    /// True for the leading intra frame.
    pub is_intra: bool,
    /// τ1 on the virtual clock (seconds); 0 for intra.
    pub tau1: f64,
    /// τ2 (seconds).
    pub tau2: f64,
    /// τtot — the frame's encoding time (seconds).
    pub tau_tot: f64,
    /// Reference frames actually searched.
    pub refs_used: usize,
    /// Wall-clock scheduling overhead of the balancer (seconds) — the
    /// paper's "< 2 ms per inter-frame" claim.
    pub sched_overhead: f64,
    /// The distribution used (None for intra).
    pub distribution: Option<Distribution>,
    /// Coded bits (functional mode only).
    pub bits: Option<u64>,
    /// Luma PSNR of the reconstruction vs the source (functional only).
    pub psnr_y: Option<f64>,
}

impl FrameReport {
    /// Report for the leading I-frame.
    pub fn intra(bits: u64, psnr: f64) -> Self {
        FrameReport {
            frame: 0,
            is_intra: true,
            tau1: 0.0,
            tau2: 0.0,
            tau_tot: 0.0,
            refs_used: 0,
            sched_overhead: 0.0,
            distribution: None,
            bits: Some(bits),
            psnr_y: Some(psnr),
        }
    }

    /// Frames per second this frame achieves.
    pub fn fps(&self) -> f64 {
        if self.tau_tot > 0.0 {
            1.0 / self.tau_tot
        } else {
            f64::INFINITY
        }
    }
}

/// A whole encoded sequence.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct EncodeReport {
    /// Platform name (e.g. `"SysHK"`).
    pub platform: String,
    /// Per-frame records.
    pub frames: Vec<FrameReport>,
}

impl EncodeReport {
    /// Wrap per-frame reports.
    pub fn new(platform: String, frames: Vec<FrameReport>) -> Self {
        EncodeReport { platform, frames }
    }

    /// Inter-frames only.
    pub fn inter_frames(&self) -> impl Iterator<Item = &FrameReport> {
        self.frames.iter().filter(|f| !f.is_intra)
    }

    /// Mean inter-frame encoding time in seconds.
    pub fn mean_frame_time(&self) -> f64 {
        let (sum, n) = self
            .inter_frames()
            .fold((0.0, 0usize), |(s, n), f| (s + f.tau_tot, n + 1));
        if n == 0 {
            0.0
        } else {
            sum / n as f64
        }
    }

    /// Mean encoding speed in fps (reciprocal of the mean frame time, the
    /// convention the paper plots).
    pub fn mean_fps(&self) -> f64 {
        let t = self.mean_frame_time();
        if t > 0.0 {
            1.0 / t
        } else {
            0.0
        }
    }

    /// Mean fps over the steady state (skipping the first `skip`
    /// inter-frames — initialization + RF ramp-up).
    pub fn steady_fps(&self, skip: usize) -> f64 {
        let times: Vec<f64> = self.inter_frames().skip(skip).map(|f| f.tau_tot).collect();
        if times.is_empty() {
            return 0.0;
        }
        times.len() as f64 / times.iter().sum::<f64>()
    }

    /// Percentile rollup of inter-frame τtot in milliseconds (`None` when
    /// the report has no inter-frames).
    pub fn tau_tot_rollup(&self) -> Option<Rollup> {
        Rollup::from_values(self.inter_frames().map(|f| f.tau_tot * 1e3).collect())
    }

    /// Percentile rollup of the wall-clock scheduling overhead in
    /// milliseconds (`None` when the report has no inter-frames).
    pub fn sched_overhead_rollup(&self) -> Option<Rollup> {
        Rollup::from_values(
            self.inter_frames()
                .map(|f| f.sched_overhead * 1e3)
                .collect(),
        )
    }

    /// Maximum scheduling overhead across frames (seconds).
    pub fn max_sched_overhead(&self) -> f64 {
        self.inter_frames()
            .map(|f| f.sched_overhead)
            .fold(0.0, f64::max)
    }

    /// Total coded bits (functional runs).
    pub fn total_bits(&self) -> u64 {
        self.frames.iter().filter_map(|f| f.bits).sum()
    }

    /// Mean luma PSNR over frames that have one.
    pub fn mean_psnr(&self) -> Option<f64> {
        let v: Vec<f64> = self
            .frames
            .iter()
            .filter_map(|f| f.psnr_y)
            .filter(|p| p.is_finite())
            .collect();
        if v.is_empty() {
            None
        } else {
            Some(v.iter().sum::<f64>() / v.len() as f64)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_dist() -> Distribution {
        Distribution::equidistant(68, 2, 0)
    }

    fn inter(
        frame: usize,
        tau_tot: f64,
        sched_overhead: f64,
        coded: Option<(u64, f64)>,
    ) -> FrameReport {
        FrameReport {
            frame,
            is_intra: false,
            tau1: 0.0,
            tau2: 0.0,
            tau_tot,
            refs_used: 1,
            sched_overhead,
            distribution: Some(dummy_dist()),
            bits: coded.map(|c| c.0),
            psnr_y: coded.map(|c| c.1),
        }
    }

    #[test]
    fn fps_is_the_reciprocal_of_tau_tot() {
        let f = inter(1, 0.04, 1e-4, None);
        assert!((f.fps() - 25.0).abs() < 1e-9);
    }

    #[test]
    fn report_aggregates() {
        let frames = vec![
            FrameReport::intra(1000, 40.0),
            inter(1, 0.02, 1e-3, Some((100, 38.0))),
            inter(2, 0.04, 2e-3, Some((200, 39.0))),
        ];
        let r = EncodeReport::new("test".into(), frames);
        assert!((r.mean_frame_time() - 0.03).abs() < 1e-12);
        assert!((r.mean_fps() - 1.0 / 0.03).abs() < 1e-9);
        assert!((r.steady_fps(1) - 25.0).abs() < 1e-9);
        assert_eq!(r.total_bits(), 1300);
        assert!((r.max_sched_overhead() - 2e-3).abs() < 1e-15);
        assert!((r.mean_psnr().unwrap() - 39.0).abs() < 1e-9);
        // Nearest-rank over {20 ms, 40 ms}: p50 is the lower value, the
        // upper tail percentiles land on the higher one.
        let roll = r.tau_tot_rollup().unwrap();
        assert!((roll.p50 - 20.0).abs() < 1e-9);
        assert!((roll.p95 - 40.0).abs() < 1e-9);
        assert!((roll.p99 - 40.0).abs() < 1e-9);
        let sched = r.sched_overhead_rollup().unwrap();
        assert!((sched.p99 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn empty_report_is_safe() {
        let r = EncodeReport::new("x".into(), vec![]);
        assert_eq!(r.mean_fps(), 0.0);
        assert_eq!(r.steady_fps(5), 0.0);
        assert!(r.mean_psnr().is_none());
        assert!(r.tau_tot_rollup().is_none());
        assert!(r.sched_overhead_rollup().is_none());
    }
}
