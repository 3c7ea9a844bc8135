//! Names the wall-clock benchmark (`wallbench/`) still calls from the
//! telemetry bus this crate no longer has. Nothing in the product uses
//! them; item B of the roadmap deletes this module.

use crate::live::{LiveConfig, LiveWriter};
use crate::scope::SessionScope;

/// The old bus controller: runs a [`LiveWriter`] when given a config and
/// ignores the capacity. Item B of the roadmap deletes it.
#[doc(hidden)]
pub struct BusController(Option<LiveWriter>);

#[doc(hidden)]
impl BusController {
    /// Starts the writer for `live`; `_capacity` sized a queue that is gone.
    pub fn start(_capacity: usize, live: Option<LiveConfig>) -> BusController {
        BusController(live.map(LiveWriter::start))
    }

    /// A handle that reports no loss. Item B of the roadmap deletes it.
    pub fn bus(&self) -> BusHandle {
        BusHandle
    }

    /// [`LiveWriter::stop`].
    pub fn stop(&mut self) {
        if let Some(writer) = &mut self.0 {
            writer.stop();
        }
    }
}

/// What [`BusController::bus`] returns. Item B of the roadmap deletes it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct BusHandle;

#[doc(hidden)]
impl BusHandle {
    /// Always zero loss: records land in their registry directly.
    pub fn stats(&self) -> LossStats {
        LossStats { dropped: 0 }
    }
}

/// What [`BusHandle::stats`] returns. Item B of the roadmap deletes it.
#[doc(hidden)]
#[derive(Clone, Copy, Debug)]
pub struct LossStats {
    /// Always 0.
    pub dropped: u64,
}

#[doc(hidden)]
impl SessionScope {
    /// Does nothing: a scope records into its registry directly. Item B of
    /// the roadmap deletes it.
    pub fn attach_bus(&self, _bus: BusHandle) {}

    /// Does nothing: no record is ever dropped. Item B of the roadmap
    /// deletes it.
    pub fn sync_dropped(&self) {}
}
