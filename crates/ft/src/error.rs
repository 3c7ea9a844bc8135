//! Typed errors for the FEVES workspace.
//!
//! The important split is recoverable vs. fatal: a [`FevesError::Fault`]
//! names a single misbehaving device and the framework can re-dispatch its
//! rows and re-solve the distribution on the surviving platform; everything
//! else means the inputs or an internal invariant are broken and the encode
//! cannot proceed.

use crate::deadline::SyncPoint;
use std::fmt;

/// Why a device was declared faulty.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultCause {
    /// A sync point finished later than its deadline
    /// (deadline = LP prediction × configured factor).
    MissedDeadline(SyncPoint),
    /// An H2D or D2H transfer involving the device failed.
    TransferError,
    /// The device's stripe thread panicked during kernel execution.
    StripePanic,
}

impl fmt::Display for FaultCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FaultCause::MissedDeadline(p) => write!(f, "missed {p} deadline"),
            FaultCause::TransferError => write!(f, "transfer error"),
            FaultCause::StripePanic => write!(f, "stripe thread panic"),
        }
    }
}

/// A detected fault attributed to one device at one inter frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct DeviceFault {
    /// Platform device index (accelerators first, then cores).
    pub device: usize,
    /// 1-based inter-frame number at which the fault was detected.
    pub frame: usize,
    pub cause: FaultCause,
}

impl fmt::Display for DeviceFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "device {} at inter frame {}: {}",
            self.device, self.frame, self.cause
        )
    }
}

/// The workspace-wide error type.
///
/// Only [`FevesError::Fault`] is recoverable: the framework blacklists the
/// culprit device and continues on the reduced platform. All other variants
/// are terminal for the call that produced them.
#[derive(Clone, Debug, PartialEq)]
pub enum FevesError {
    /// Invalid encoder or platform configuration.
    Config(String),
    /// Malformed external input (platform JSON, fault spec, CLI argument).
    Parse(String),
    /// A working set that cannot fit the platform's device memory.
    Memory(String),
    /// An internal accounting invariant was violated (a bug, not bad input).
    Accounting(String),
    /// A single device misbehaved; the encode can continue without it.
    Fault(DeviceFault),
    /// The platform degraded below the minimum viable set (no host core
    /// left), or recovery itself failed.
    Unrecoverable(String),
    /// A checkpoint file is torn, bit-rotted, or structurally invalid
    /// (bad magic, CRC mismatch, truncated section). The caller should
    /// fall back to the previous generation.
    CheckpointCorrupt(String),
    /// A checkpoint was written by an incompatible format version.
    CheckpointVersion {
        /// Version found in the file header.
        found: u32,
        /// Version this binary understands.
        expected: u32,
    },
    /// A structurally valid checkpoint that does not match the present
    /// world: different job fingerprint, output bitstream shorter than the
    /// committed byte count, or input sequence changed underneath it.
    CheckpointStale(String),
}

impl fmt::Display for FevesError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FevesError::Config(m) => write!(f, "configuration error: {m}"),
            FevesError::Parse(m) => write!(f, "parse error: {m}"),
            FevesError::Memory(m) => write!(f, "memory error: {m}"),
            FevesError::Accounting(m) => write!(f, "accounting error: {m}"),
            FevesError::Fault(d) => write!(f, "device fault: {d}"),
            FevesError::Unrecoverable(m) => write!(f, "unrecoverable: {m}"),
            FevesError::CheckpointCorrupt(m) => write!(f, "checkpoint corrupt: {m}"),
            FevesError::CheckpointVersion { found, expected } => write!(
                f,
                "checkpoint version mismatch: file is v{found}, this build reads v{expected}"
            ),
            FevesError::CheckpointStale(m) => write!(f, "checkpoint stale: {m}"),
        }
    }
}

impl std::error::Error for FevesError {}

impl From<DeviceFault> for FevesError {
    fn from(fault: DeviceFault) -> Self {
        FevesError::Fault(fault)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_informative() {
        let e = FevesError::Fault(DeviceFault {
            device: 0,
            frame: 7,
            cause: FaultCause::MissedDeadline(SyncPoint::Tau1),
        });
        let msg = e.to_string();
        assert!(msg.contains("device 0"));
        assert!(msg.contains("frame 7"));
        assert!(msg.contains("τ1"));
    }
}
