//! Per-device health tracking: the recovery state machine.
//!
//! ```text
//!            fault                    backoff expires
//! Healthy ─────────▶ Blacklisted ─────────────────────▶ Probation
//!    ▲                    ▲                                 │
//!    │                    │ fault (backoff doubles)         │
//!    │                    └─────────────────────────────────┤
//!    └──────────────────────────────────────────────────────┘
//!                 M consecutive clean frames (backoff resets)
//! ```
//!
//! Blacklisted devices are excluded from load balancing and data transfers.
//! After an exponential backoff (in frames) the device is re-admitted on
//! *probation*: it gets work again, but one more fault re-blacklists it with
//! a doubled backoff, so a permanently dead device converges to near-zero
//! probe overhead while a transiently stalled one rejoins quickly.

use crate::splitmix64;

/// Health state of one device.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeviceHealth {
    /// Fully trusted.
    Healthy,
    /// Re-admitted after a blacklist; trusted but watched.
    Probation,
    /// Excluded from scheduling until the backoff expires.
    Blacklisted,
}

/// Tracks every device's health across the sequence.
#[derive(Clone, Debug)]
pub struct HealthTracker {
    state: Vec<DeviceHealth>,
    /// Frame at which a blacklisted device is re-admitted for a probe.
    readmit_at: Vec<usize>,
    /// Current backoff in frames; doubles on every fault, resets on full
    /// recovery.
    backoff: Vec<usize>,
    /// Clean frames still needed to graduate from probation.
    probation_left: Vec<usize>,
    faults: Vec<u64>,
    base_backoff: usize,
    probation_frames: usize,
    /// When set, re-admission times carry a deterministic jitter in
    /// `[0, backoff/2]` so concurrent sessions sharing a platform do not
    /// re-probe a recovered device in lockstep (thundering herd). `None`
    /// (the default) keeps the historical exact timing. Derived state, not
    /// part of [`HealthSnapshot`] — restorers re-apply it from their config.
    jitter_seed: Option<u64>,
}

/// Backoff is capped so a flapping device still gets probed occasionally.
const MAX_BACKOFF_FRAMES: usize = 64;

impl HealthTracker {
    /// `base_backoff`: frames a device sits out after its first fault.
    /// `probation_frames`: clean frames required to regain full health.
    pub fn new(n_devices: usize, base_backoff: usize, probation_frames: usize) -> Self {
        HealthTracker {
            state: vec![DeviceHealth::Healthy; n_devices],
            readmit_at: vec![0; n_devices],
            backoff: vec![base_backoff.max(1); n_devices],
            probation_left: vec![0; n_devices],
            faults: vec![0; n_devices],
            base_backoff: base_backoff.max(1),
            probation_frames: probation_frames.max(1),
            jitter_seed: None,
        }
    }

    /// Enable (`Some`) or disable (`None`) deterministic re-admission
    /// jitter. The jitter of each fault is a pure function of
    /// `(seed, device, fault count)`, so two trackers with the same seed
    /// replay identical timelines — and a checkpoint-restored tracker
    /// continues the original one exactly.
    pub fn set_jitter_seed(&mut self, seed: Option<u64>) {
        self.jitter_seed = seed;
    }

    pub fn len(&self) -> usize {
        self.state.len()
    }

    pub fn is_empty(&self) -> bool {
        self.state.is_empty()
    }

    pub fn state(&self, device: usize) -> DeviceHealth {
        self.state[device]
    }

    /// Total faults recorded against `device`.
    pub fn fault_count(&self, device: usize) -> u64 {
        self.faults[device]
    }

    /// True when the device may be scheduled (healthy or on probation).
    pub fn is_available(&self, device: usize) -> bool {
        self.state[device] != DeviceHealth::Blacklisted
    }

    /// Availability mask in platform device order.
    pub fn available(&self) -> Vec<bool> {
        (0..self.state.len())
            .map(|d| self.is_available(d))
            .collect()
    }

    /// Number of schedulable devices.
    pub fn n_available(&self) -> usize {
        self.state
            .iter()
            .filter(|s| **s != DeviceHealth::Blacklisted)
            .count()
    }

    /// Advances to inter frame `frame`: re-admits blacklisted devices whose
    /// backoff has expired, moving them to probation. Call once per frame
    /// before load balancing.
    pub fn tick(&mut self, frame: usize) {
        for d in 0..self.state.len() {
            if self.state[d] == DeviceHealth::Blacklisted && frame >= self.readmit_at[d] {
                self.state[d] = DeviceHealth::Probation;
                self.probation_left[d] = self.probation_frames;
            }
        }
    }

    /// Records a fault against `device` at inter frame `frame`: the device
    /// is blacklisted until `frame + backoff` (plus a deterministic jitter
    /// in `[0, backoff/2]` when a jitter seed is set), and the backoff
    /// doubles.
    pub fn record_fault(&mut self, device: usize, frame: usize) {
        self.faults[device] += 1;
        let jitter = match self.jitter_seed {
            Some(seed) => {
                let span = self.backoff[device] / 2 + 1;
                let h = splitmix64(seed ^ (device as u64).rotate_left(32) ^ self.faults[device]);
                (h % span as u64) as usize
            }
            None => 0,
        };
        self.state[device] = DeviceHealth::Blacklisted;
        self.readmit_at[device] = frame + self.backoff[device] + jitter;
        self.backoff[device] = (self.backoff[device] * 2).min(MAX_BACKOFF_FRAMES);
    }

    /// Records a clean frame for `device`. Probation devices graduate to
    /// healthy after `probation_frames` consecutive clean frames, which also
    /// resets their backoff.
    pub fn record_success(&mut self, device: usize) {
        if self.state[device] == DeviceHealth::Probation {
            self.probation_left[device] = self.probation_left[device].saturating_sub(1);
            if self.probation_left[device] == 0 {
                self.state[device] = DeviceHealth::Healthy;
                self.backoff[device] = self.base_backoff;
            }
        }
    }

    /// Devices currently blacklisted, in device order.
    pub fn blacklisted(&self) -> Vec<usize> {
        (0..self.state.len())
            .filter(|&d| self.state[d] == DeviceHealth::Blacklisted)
            .collect()
    }

    /// Frame at which blacklisted `device` will be re-admitted for a probe
    /// (meaningless while the device is not blacklisted).
    pub fn readmit_at(&self, device: usize) -> usize {
        self.readmit_at[device]
    }

    /// Current backoff (frames) `device` would sit out after its next fault.
    pub fn backoff(&self, device: usize) -> usize {
        self.backoff[device]
    }

    /// Full copy of the tracker state for checkpointing.
    pub fn snapshot(&self) -> HealthSnapshot {
        HealthSnapshot {
            state: self.state.clone(),
            readmit_at: self.readmit_at.clone(),
            backoff: self.backoff.clone(),
            probation_left: self.probation_left.clone(),
            faults: self.faults.clone(),
            base_backoff: self.base_backoff,
            probation_frames: self.probation_frames,
        }
    }

    /// Rebuild a tracker from a [`HealthSnapshot`]. Fails if the per-device
    /// vectors disagree in length (a corrupt snapshot).
    pub fn restore(snap: HealthSnapshot) -> Result<Self, String> {
        let n = snap.state.len();
        if [
            snap.readmit_at.len(),
            snap.backoff.len(),
            snap.probation_left.len(),
            snap.faults.len(),
        ]
        .iter()
        .any(|&l| l != n)
        {
            return Err("health snapshot vectors disagree in device count".into());
        }
        Ok(HealthTracker {
            state: snap.state,
            readmit_at: snap.readmit_at,
            backoff: snap.backoff,
            probation_left: snap.probation_left,
            faults: snap.faults,
            base_backoff: snap.base_backoff.max(1),
            probation_frames: snap.probation_frames.max(1),
            // Derived config, not snapshot state: the restorer re-applies
            // its own seed (see `FevesEncoder::restore`).
            jitter_seed: None,
        })
    }
}

/// Serializable state of a [`HealthTracker`] (checkpoint payload).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct HealthSnapshot {
    /// Per-device health state.
    pub state: Vec<DeviceHealth>,
    /// Per-device re-admission frame.
    pub readmit_at: Vec<usize>,
    /// Per-device current backoff in frames.
    pub backoff: Vec<usize>,
    /// Per-device clean frames left to graduate probation.
    pub probation_left: Vec<usize>,
    /// Per-device lifetime fault count.
    pub faults: Vec<u64>,
    /// Configured base backoff.
    pub base_backoff: usize,
    /// Configured probation length.
    pub probation_frames: usize,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fault_blacklists_and_backoff_readmits() {
        let mut h = HealthTracker::new(3, 2, 2);
        h.record_fault(1, 5);
        assert_eq!(h.state(1), DeviceHealth::Blacklisted);
        assert!(!h.is_available(1));
        assert_eq!(h.available(), vec![true, false, true]);

        h.tick(6); // backoff (2) not yet expired
        assert_eq!(h.state(1), DeviceHealth::Blacklisted);
        h.tick(7); // 5 + 2 → probation
        assert_eq!(h.state(1), DeviceHealth::Probation);
        assert!(h.is_available(1));
    }

    #[test]
    fn probation_graduates_after_clean_frames() {
        let mut h = HealthTracker::new(2, 2, 2);
        h.record_fault(0, 1);
        h.tick(3);
        assert_eq!(h.state(0), DeviceHealth::Probation);
        h.record_success(0);
        assert_eq!(h.state(0), DeviceHealth::Probation);
        h.record_success(0);
        assert_eq!(h.state(0), DeviceHealth::Healthy);
    }

    #[test]
    fn backoff_doubles_and_caps() {
        let mut h = HealthTracker::new(1, 2, 1);
        let mut frame = 1;
        let mut last_gap = 0;
        for _ in 0..10 {
            h.record_fault(0, frame);
            let gap = h.readmit_at[0] - frame;
            assert!(gap >= last_gap, "backoff must not shrink");
            assert!(gap <= MAX_BACKOFF_FRAMES);
            last_gap = gap;
            frame = h.readmit_at[0];
            h.tick(frame);
        }
        assert_eq!(last_gap, MAX_BACKOFF_FRAMES);
    }

    #[test]
    fn recovery_resets_backoff() {
        let mut h = HealthTracker::new(1, 2, 1);
        h.record_fault(0, 1); // backoff now 4
        h.record_fault(0, 3); // backoff now 8
        h.tick(11);
        assert_eq!(h.state(0), DeviceHealth::Probation);
        h.record_success(0);
        assert_eq!(h.state(0), DeviceHealth::Healthy);
        // Next fault sits out only the base backoff again.
        h.record_fault(0, 20);
        assert_eq!(h.readmit_at[0], 22);
        assert_eq!(h.fault_count(0), 3);
    }

    #[test]
    fn snapshot_restore_preserves_the_state_machine_mid_backoff() {
        let mut h = HealthTracker::new(2, 2, 2);
        h.record_fault(1, 5); // blacklisted until 7, backoff doubled to 4
        let restored = HealthTracker::restore(h.snapshot()).unwrap();
        assert_eq!(restored.state(1), DeviceHealth::Blacklisted);
        assert_eq!(restored.readmit_at(1), 7);
        assert_eq!(restored.backoff(1), 4);
        assert_eq!(restored.fault_count(1), 1);
        // The restored tracker continues the exact same timeline.
        let mut a = h.clone();
        let mut b = restored;
        for frame in 6..12 {
            a.tick(frame);
            b.tick(frame);
            assert_eq!(a.state(1), b.state(1), "diverged at frame {frame}");
            a.record_success(1);
            b.record_success(1);
        }
        assert_eq!(a.state(1), DeviceHealth::Healthy);
        assert_eq!(b.state(1), DeviceHealth::Healthy);
    }

    #[test]
    fn restore_rejects_mismatched_vectors() {
        let h = HealthTracker::new(2, 2, 2);
        let mut snap = h.snapshot();
        snap.faults.pop();
        assert!(HealthTracker::restore(snap).is_err());
    }
}
