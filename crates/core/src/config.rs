//! Encoder configuration.

use feves_codec::cabac::EntropyBackend;
use feves_codec::types::EncodeParams;
use feves_ft::{DriftConfig, FaultSpec, FevesError};
use feves_sched::{Centric, Ewma};
use feves_video::geometry::Resolution;

/// Which load-balancing policy drives the framework.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BalancerKind {
    /// The paper's Algorithm 2 (LP + Dijkstra R\* mapping). The default.
    Feves,
    /// Algorithm 2 with a pinned R\* mapping (ablation).
    FevesFixed(Centric),
    /// Equidistant split every frame (related work \[8\] / init phase).
    Equidistant,
    /// Per-module proportional split (the authors' prior work \[9\]).
    Proportional,
    /// Greedy earliest-finish-time list scheduling (HEFT-class baseline).
    Greedy,
    /// Everything on accelerator `i` (single-GPU baselines).
    SingleAccelerator(usize),
    /// Everything on the CPU cores (CPU-only baselines).
    CpuOnly,
}

/// Whether to run the real encoding kernels or only the timing simulation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ExecutionMode {
    /// Run the platform/timing simulation only — what the figure-regeneration
    /// benches use for 1080p×100-frame sweeps. Scheduling, data management
    /// and adaptation behave identically; no pixels are touched.
    TimingOnly,
    /// Additionally execute the actual kernels on real frames and produce a
    /// bitstream + reconstruction (used by tests and examples).
    Functional,
}

/// Full configuration of a [`crate::FevesEncoder`].
#[derive(Clone, Debug)]
pub struct EncoderConfig {
    /// Video resolution being encoded.
    pub resolution: Resolution,
    /// Inter-loop parameters (SA, reference frames, QPs).
    pub params: EncodeParams,
    /// Load-balancing policy.
    pub balancer: BalancerKind,
    /// Timing-only or functional execution.
    pub mode: ExecutionMode,
    /// Performance-characterization smoothing (1.0 = paper's last-sample).
    pub ewma: Ewma,
    /// Measurement-noise amplitude (0 disables; 0.02–0.05 is realistic).
    pub noise_amp: f64,
    /// Noise seed (same seed ⇒ bit-identical run).
    pub noise_seed: u64,
    /// Overlap transfers with kernels per Fig 4 (false = synchronous
    /// per-module barriers, the \[9\]-style execution; ablation knob).
    pub overlap: bool,
    /// Model the communication-saving Δ/σ data reuse of Fig 5 (false =
    /// retransfer whole buffers every frame; ablation knob).
    pub data_reuse: bool,
    /// Intra period for functional encoding: a new I-frame (closed GOP,
    /// reference window reset) every `n` frames. `None` = IPPP… forever,
    /// the paper's configuration.
    pub gop: Option<usize>,
    /// Entropy backend for the functional bitstream: the paper's
    /// Baseline-profile class (Exp-Golomb/CAVLC-style) or the Main-profile
    /// adaptive arithmetic coder.
    pub entropy: EntropyBackend,
    /// Closed-loop rate control: target kbit/s at the given display rate.
    /// `None` (the paper's configuration) encodes at fixed QP.
    pub rate_control: Option<RateControlConfig>,
    /// Deterministic device-fault schedule to inject (chaos testing / the
    /// CLI's `--inject-fault`). Empty = fault-free.
    pub faults: Vec<FaultSpec>,
    /// Sync-point deadline = LP-predicted τ × this factor; a miss declares
    /// the slowest device faulty. Must exceed 1 with enough slack to absorb
    /// profile noise and benign perturbations.
    pub deadline_factor: f64,
    /// Prediction-drift detection (audit layer): a device whose signed LP
    /// residual stays outside `±band_pct` for `k` consecutive frames is
    /// re-characterized (rates reset → equidistant probe).
    pub drift: DriftConfig,
    /// Deterministic jitter seed for the health tracker's re-admission
    /// backoff. `None` (the default) keeps exact exponential timing;
    /// concurrent farm sessions set a per-job seed so they do not re-probe
    /// a recovered shared device in lockstep. Affects scheduling timing
    /// only — never the functional bitstream bytes.
    pub health_jitter: Option<u64>,
    /// Inter-frame overlap: frame N+1's ME/INT phase starts on devices that
    /// finished their frame-N stripes while frame N's R\* merge and entropy
    /// coding drain, accounted against frame N's carried per-device stall.
    /// Affects scheduling timing and idle attribution only — never the
    /// functional bitstream bytes.
    pub pipeline: bool,
}

/// Rate-control parameters (see [`feves_codec::rate::RateController`]).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateControlConfig {
    /// Target bitrate in kbit/s.
    pub target_kbps: f64,
    /// Display frame rate the budget is computed against.
    pub fps: f64,
}

impl EncoderConfig {
    /// 1080p defaults matching the paper's headline experiment.
    pub fn full_hd(params: EncodeParams) -> Self {
        EncoderConfig {
            resolution: Resolution::FULL_HD,
            params,
            balancer: BalancerKind::Feves,
            mode: ExecutionMode::TimingOnly,
            ewma: Ewma::default(),
            noise_amp: 0.02,
            noise_seed: 0xFE0E5,
            overlap: true,
            data_reuse: true,
            gop: None,
            entropy: EntropyBackend::ExpGolomb,
            rate_control: None,
            faults: Vec::new(),
            deadline_factor: 3.0,
            drift: DriftConfig::default(),
            health_jitter: None,
            pipeline: false,
        }
    }

    /// Validate the configuration.
    pub fn validate(&self) -> Result<(), FevesError> {
        let bad = |m: &str| Err(FevesError::Config(m.into()));
        self.params.validate().map_err(FevesError::Config)?;
        if self.resolution.width < 64 || self.resolution.height < 64 {
            return bad("resolution too small (min 64x64)");
        }
        if !(0.0..1.0).contains(&self.noise_amp) {
            return bad("noise amplitude must be in [0, 1)");
        }
        if !(0.0..=1.0).contains(&self.ewma.0) || self.ewma.0 == 0.0 {
            return bad("EWMA alpha must be in (0, 1]");
        }
        if self.gop == Some(0) {
            return bad("GOP length must be >= 1");
        }
        if let Some(rc) = &self.rate_control {
            if rc.target_kbps <= 0.0 || rc.fps <= 0.0 {
                return bad("rate control needs positive target and fps");
            }
        }
        if !(self.deadline_factor.is_finite() && self.deadline_factor > 1.0) {
            return bad("deadline factor must be finite and > 1");
        }
        self.drift.validate().map_err(FevesError::Config)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_valid() {
        EncoderConfig::full_hd(EncodeParams::default())
            .validate()
            .unwrap();
    }

    #[test]
    fn rejects_bad_noise_and_ewma() {
        let mut c = EncoderConfig::full_hd(EncodeParams::default());
        c.noise_amp = 1.5;
        assert!(c.validate().is_err());
        c.noise_amp = 0.0;
        c.ewma = Ewma(0.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn rejects_bad_deadline_factor() {
        let mut c = EncoderConfig::full_hd(EncodeParams::default());
        c.deadline_factor = 1.0;
        assert!(c.validate().is_err());
        c.deadline_factor = f64::INFINITY;
        assert!(c.validate().is_err());
        c.deadline_factor = 2.5;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_bad_drift_config() {
        let mut c = EncoderConfig::full_hd(EncodeParams::default());
        c.drift.band_pct = -5.0;
        assert!(c.validate().is_err());
        c.drift.band_pct = 25.0;
        c.drift.k = 0;
        assert!(c.validate().is_err());
        c.drift.k = 3;
        assert!(c.validate().is_ok());
    }

    #[test]
    fn rejects_tiny_resolution() {
        let mut c = EncoderConfig::full_hd(EncodeParams::default());
        c.resolution = Resolution::new(32, 32);
        assert!(c.validate().is_err());
    }
}
