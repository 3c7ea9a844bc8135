#![warn(missing_docs)]
//! FEVES framework core: the paper's primary contribution.
//!
//! [`FevesEncoder`] is the public entry point — an autonomous H.264/AVC
//! inter-loop encoder for heterogeneous CPU + multi-GPU platforms that
//! integrates:
//!
//! - **Framework Control** ([`framework`]) — Algorithm 1's init/iterative
//!   phases;
//! - **Video Coding Manager** ([`vcm`]) — cross-device orchestration of the
//!   Parallel Modules and transfers with the τ1/τ2/τtot structure of Fig 4;
//! - **Data Access Management** ([`dam`]) — buffer residency, Δ data reuse
//!   and the deferred-SF σ/σʳ machinery of Fig 5;
//! - **Load Balancing / Performance Characterization** (from
//!   [`feves_sched`]) — the Algorithm 2 LP fed by on-line measurements;
//! - **Sessions** ([`session`]) — Algorithm 1 as a durable job: the one
//!   driver behind `feves encode`, `feves resume` and the farm worker.
//!
//! ```
//! use feves_core::prelude::*;
//!
//! let config = EncoderConfig::full_hd(EncodeParams::default());
//! let mut enc = FevesEncoder::new(Platform::sys_hk(), config).unwrap();
//! let report = enc.run_timing(10);
//! assert!(report.mean_fps() > 25.0, "SysHK must be real-time at 32x32/1RF");
//! ```

pub mod ckpt;
pub mod config;
pub mod dam;
pub mod framework;
pub mod oracle;
pub mod pipeline;
pub mod report;
pub mod session;
pub mod trace;
pub mod vcm;

pub use ckpt::{
    decode_checkpoint, encode_checkpoint, load_checkpoint_file, load_latest, CheckpointManager,
    ResumeContext,
};
pub use config::{BalancerKind, EncoderConfig, ExecutionMode, RateControlConfig};
pub use framework::{FevesEncoder, FrameworkState, FtStats, Perturbation, SessionCtl};
pub use oracle::OracleBalancer;
pub use pipeline::PipelineOverlap;
pub use report::{EncodeReport, FrameReport, Rollup};

/// Convenient glob import for applications.
pub mod prelude {
    pub use crate::ckpt::{load_checkpoint_file, load_latest, CheckpointManager, ResumeContext};
    pub use crate::config::{BalancerKind, EncoderConfig, ExecutionMode, RateControlConfig};
    pub use crate::framework::{FevesEncoder, FrameworkState, FtStats, Perturbation, SessionCtl};
    pub use crate::pipeline::PipelineOverlap;
    pub use crate::report::{EncodeReport, FrameReport, Rollup};
    pub use feves_codec::types::{EncodeParams, SearchArea};
    pub use feves_ft::{
        DeviceHealth, DriftConfig, DriftDetector, FaultSchedule, FaultSpec, FevesError,
    };
    pub use feves_hetsim::platform::Platform;
    pub use feves_hetsim::profiles;
    pub use feves_obs::{AuditSummary, FlightRecord, FlightRecorder};
    pub use feves_sched::Centric;
    pub use feves_video::geometry::Resolution;
    pub use feves_video::synth::{SynthConfig, SynthSequence};
}
