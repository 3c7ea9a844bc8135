#![warn(missing_docs)]
//! # feves-serve — service mode for the FEVES encoder
//!
//! The paper's framework drives *one* encode session on one heterogeneous
//! platform. This crate turns that into an operable service: a supervised
//! encode farm that accepts jobs over a spool directory, multiplexes them
//! across the shared platform via fleet-level device leases (a partitioner
//! *above* the per-frame Algorithm-2 LP — see [`partition`]), and survives
//! the failure modes a long-running daemon actually meets:
//!
//! - **Admission control** — one bound on the queue, past which a submit
//!   is rejected with a typed [`ServeError::QueueFull`] ([`queue`]).
//! - **Backpressure** — in-flight session credits cap concurrency.
//! - **Fault isolation** — each session runs on its own worker thread
//!   behind `catch_unwind`; a dying session blacklists its attributed
//!   device in a fleet-level health machine and is retried under a
//!   budgeted, jittered backoff, resuming bit-exactly from its last
//!   durable checkpoint ([`farm`], [`session`]).
//! - **Graceful drain** — `SIGTERM`/`SIGINT` (or a `ctl/drain` marker)
//!   stops admission, preempts in-flight sessions into durable
//!   checkpoints, flushes the final live telemetry snapshot, and exits
//!   zero with zero lost jobs ([`signal`]).
//!
//! The invariant everything hangs on: a job encoded under the farm is
//! **byte-identical** to the same job encoded by a single `feves encode`,
//! whatever leases, faults, retries or drains happened along the way.

pub mod farm;
pub mod job;
pub mod partition;
pub mod queue;
pub mod session;
pub mod signal;

pub use farm::{DrainReport, FarmConfig};
pub use job::{JobSpec, JobStatus};
pub use queue::JobQueue;
pub use session::{verify_artifact, SessionFailure, SessionReport};

use std::fmt;

/// Typed errors of the service layer.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// Admission refused: the queue holds as many jobs as its bound.
    QueueFull {
        /// Jobs queued at the moment of refusal.
        depth: usize,
        /// The queue's bound (`FarmConfig::queue_cap`).
        capacity: usize,
    },
    /// A spool file whose spec names another job: every record of a job
    /// is keyed by its id, so only `<id>.json` may carry it.
    IdNotFileName {
        /// The id the spec names.
        id: String,
        /// The spool file's stem.
        stem: String,
    },
    /// Admission refused: another live job (queued, in flight or waiting
    /// to retry) writes the same output and its `<output>.ckpt`.
    OutputHeld {
        /// The output path both specs name.
        output: String,
        /// The id of the job holding it.
        holder: String,
    },
    /// A malformed or unusable job spec.
    BadJob(String),
    /// Spool / output filesystem trouble.
    Io(String),
    /// A control file or artifact failed its integrity check (checksum
    /// trailer mismatch, torn write, bit-rot). Rejected, never crashed on.
    Corrupt(String),
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            // Rejected done records carry this text: it keeps its words.
            ServeError::QueueFull { depth, capacity } => {
                write!(f, "queue full: {depth} queued >= high watermark {capacity}")
            }
            ServeError::IdNotFileName { id, stem } => {
                write!(f, "spec id '{id}' is not its file name '{stem}'")
            }
            ServeError::OutputHeld { output, holder } => {
                write!(f, "output '{output}' is held by job '{holder}'")
            }
            ServeError::BadJob(m) => write!(f, "bad job: {m}"),
            ServeError::Io(m) => write!(f, "io: {m}"),
            ServeError::Corrupt(m) => write!(f, "corrupt: {m}"),
        }
    }
}

impl std::error::Error for ServeError {}

impl From<std::io::Error> for ServeError {
    fn from(e: std::io::Error) -> Self {
        ServeError::Io(e.to_string())
    }
}
