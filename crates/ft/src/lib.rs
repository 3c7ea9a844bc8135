//! # feves-ft — fault tolerance primitives for FEVES
//!
//! FEVES (Algorithms 1–2) assumes every discovered device stays alive and
//! performs near its characterization for the whole sequence. Real
//! transcoding farms cannot: GPUs die mid-sequence, thermal throttling turns
//! a device into a straggler, and DMA transfers fail. This crate holds the
//! pieces the framework needs to survive that, kept dependency-free so every
//! other crate (hetsim, sched, core) can build on it:
//!
//! - [`FevesError`] — the typed error replacing `Result<_, String>` across
//!   the workspace, separating *recoverable* device faults from fatal
//!   configuration / accounting failures.
//! - [`FaultSpec`] / [`FaultKind`] / [`FaultSchedule`] — the injectable
//!   fault model: permanent death, transient stall, slowdown stragglers,
//!   transfer errors and kernel panics, on a deterministic (optionally
//!   seeded) schedule.
//! - [`HealthTracker`] — the per-device recovery state machine
//!   (healthy → probation → blacklisted) with exponential-backoff
//!   re-admission probes.
//! - [`DeadlinePolicy`] — sync-point deadlines derived from the LP's
//!   predicted τ1/τ2/τtot; a missed deadline is the detection signal.
//! - [`DriftDetector`] — the quiet failure mode: a device that still meets
//!   its deadlines but consistently runs outside the characterization's
//!   prediction band, flagged for re-characterization rather than
//!   blacklisting.

//! - [`ckpt`] — checkpoint wire-format primitives (byte codec, CRC-32,
//!   versioned section container) shared by the crash-safe session layer.
//! - [`crash`] — env-armed deterministic crash points for the process-kill
//!   chaos harness.
//! - [`io`] — the fault-injectable I/O seam ([`IoBackend`]): every durable
//!   write in the workspace routes through it, so storage chaos tests can
//!   overlay seeded ENOSPC/EIO/short-write/torn-rename/bit-rot schedules
//!   on a path prefix without touching the code under test.

pub mod ckpt;
pub mod crash;
pub mod deadline;
pub mod drift;
pub mod error;
pub mod fault;
pub mod health;
pub mod io;
pub mod retry;

pub use ckpt::{ByteReader, ByteWriter, CheckpointBlob, CKPT_VERSION};
pub use deadline::{DeadlinePolicy, Deadlines, GenerationDeadlines, SyncPoint};
pub use drift::{DriftConfig, DriftDetector, DriftSnapshot};
pub use error::{DeviceFault, FaultCause, FevesError};
pub use fault::{FaultKind, FaultSchedule, FaultSpec};
pub use health::{DeviceHealth, HealthSnapshot, HealthTracker};
pub use io::{
    backend_for, classify, inject, retry_io, CrcFile, FaultPlan, FaultScope, FaultyIo, IoBackend,
    IoErrorClass, IoFile, RealIo,
};
pub use retry::RetryPolicy;

/// SplitMix64's increment, the golden-ratio odd constant.
const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The SplitMix64 mix of `z + GOLDEN_GAMMA`: a strong, dependency-free
/// 64-bit hash. The health tracker's and the retry policy's jitter, the
/// storage-fault schedule and the chaos fault schedule all draw from it,
/// each a pure function of its seed, so every run replays exactly.
pub fn splitmix64(z: u64) -> u64 {
    let z = z.wrapping_add(GOLDEN_GAMMA);
    let z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    let z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
