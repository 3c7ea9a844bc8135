//! Per-device completion tracking for the inter-frame pipeline.
//!
//! The lockstep control loop only ever needed the *global* barrier time
//! τtot — every device waits at the frame boundary for the slowest one.
//! The inter-frame overlap instead needs to know, per device, *when* it
//! went idle: a device that finished its frame-N stripes early has an idle
//! tail (its τ-sync stall) that frame N+1's ME/INT phase can fill. This
//! module owns that bookkeeping so the framework and the overlap
//! accounting agree on one definition of "finished".
//!
//! All times are virtual-clock seconds on the frame-local timeline (0 =
//! frame start, τtot = slowest device done).

/// Per-device completion times of one simulated frame, replacing the
/// single global-barrier view.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct CompletionTracker {
    /// Finish time of each device's *last* task this frame (compute,
    /// R\* parts and copy-engine transfers all count — a device is not
    /// idle while its DMA engine still feeds a peer). Devices with no
    /// tasks stay at 0.0: idle from frame start.
    finish: Vec<f64>,
    /// Finish time of each device's last τ1-phase task (ME/INT kernels and
    /// the transfers that feed them). This is the span frame N+1 would
    /// need to pull forward into frame N's idle tail.
    phase1: Vec<f64>,
    /// The frame's global barrier (τtot) — the lockstep reap point.
    tau_tot: f64,
}

impl CompletionTracker {
    /// Empty tracker for `n_devices` devices.
    pub fn new(n_devices: usize) -> Self {
        CompletionTracker {
            finish: vec![0.0; n_devices],
            phase1: vec![0.0; n_devices],
            tau_tot: 0.0,
        }
    }

    /// Record that `device`'s task finished at `at` seconds; `in_phase1`
    /// marks tasks that complete at or before the τ1 barrier. Monotone:
    /// later observations only ever push the completion time out.
    pub fn record(&mut self, device: usize, at: f64, in_phase1: bool) {
        assert!(device < self.finish.len(), "device index in range");
        assert!(at.is_finite() && at >= 0.0, "completion times are causal");
        if at > self.finish[device] {
            self.finish[device] = at;
        }
        if in_phase1 && at > self.phase1[device] {
            self.phase1[device] = at;
        }
        if at > self.tau_tot {
            self.tau_tot = at;
        }
    }

    /// Pin the global barrier explicitly (the τtot barrier task can sit
    /// marginally past the last measured task). Never shrinks.
    pub fn set_barrier(&mut self, tau_tot: f64) {
        assert!(tau_tot.is_finite() && tau_tot >= 0.0);
        if tau_tot > self.tau_tot {
            self.tau_tot = tau_tot;
        }
    }

    /// Devices tracked.
    pub fn n_devices(&self) -> usize {
        self.finish.len()
    }

    /// The frame's global barrier time.
    pub fn tau_tot(&self) -> f64 {
        self.tau_tot
    }

    /// Finish time of `device`'s last task.
    pub fn finish_of(&self, device: usize) -> f64 {
        self.finish[device]
    }

    /// Finish time of `device`'s last τ1-phase task.
    pub fn phase1_of(&self, device: usize) -> f64 {
        self.phase1[device]
    }

    /// Per-device τ-sync stall: how long each device idles between its own
    /// last task and the global barrier. This is exactly the time the
    /// pipeline can hand to the next frame's ME/INT phase.
    pub fn stalls(&self) -> Vec<f64> {
        self.finish
            .iter()
            .map(|&f| (self.tau_tot - f).max(0.0))
            .collect()
    }

    /// The per-device phase-1 spans, as a slice.
    pub fn phase1(&self) -> &[f64] {
        &self.phase1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stalls_measure_the_idle_tail() {
        let mut t = CompletionTracker::new(3);
        t.record(0, 4.0, true);
        t.record(1, 10.0, false);
        t.record(2, 7.0, true);
        assert_eq!(t.tau_tot(), 10.0);
        assert_eq!(t.stalls(), vec![6.0, 0.0, 3.0]);
        // A device with no tasks stalls the whole frame.
        let t2 = {
            let mut t2 = CompletionTracker::new(2);
            t2.record(0, 5.0, false);
            t2
        };
        assert_eq!(t2.stalls(), vec![0.0, 5.0]);
    }

    #[test]
    fn completion_is_monotone_and_phase1_is_separate() {
        let mut t = CompletionTracker::new(2);
        t.record(0, 3.0, true);
        t.record(0, 2.0, false); // earlier observation cannot rewind
        assert_eq!(t.finish_of(0), 3.0);
        assert_eq!(t.phase1_of(0), 3.0);
        t.record(0, 5.0, false); // later non-phase1 work extends finish only
        assert_eq!(t.finish_of(0), 5.0);
        assert_eq!(t.phase1_of(0), 3.0);
    }

    #[test]
    fn barrier_never_shrinks() {
        let mut t = CompletionTracker::new(3);
        t.record(2, 1.0, false);
        t.record(0, 6.0, false);
        t.record(1, 6.0, false);
        t.set_barrier(4.0); // below the measured max: ignored
        assert_eq!(t.tau_tot(), 6.0);
        t.set_barrier(8.0);
        assert_eq!(t.tau_tot(), 8.0);
    }
}
