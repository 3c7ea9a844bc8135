//! Sync-point deadlines.
//!
//! Algorithm 2's LP predicts the virtual times of the three FEVES sync
//! points — τ1 (end of interpolation / ME exchange), τ2 (end of SME) and
//! τtot (frame done). A healthy frame lands near its prediction; a device
//! that died or stalled blows one of them by orders of magnitude. The
//! detection rule is simply `measured > predicted × factor`, checked at the
//! earliest sync point first so the culprit is attributed as soon as
//! possible.

use std::fmt;

/// The three FEVES per-frame synchronization points.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPoint {
    /// End of phase 1: ME on accelerators + interpolation on cores.
    Tau1,
    /// End of phase 2: SME over the interpolated reference.
    Tau2,
    /// Frame complete (includes R* reconstruction).
    TauTot,
}

impl fmt::Display for SyncPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SyncPoint::Tau1 => write!(f, "τ1"),
            SyncPoint::Tau2 => write!(f, "τ2"),
            SyncPoint::TauTot => write!(f, "τtot"),
        }
    }
}

/// Converts predicted sync-point times into deadlines.
#[derive(Clone, Copy, Debug)]
pub struct DeadlinePolicy {
    /// Deadline = prediction × factor. Must be > 1; the slack absorbs
    /// profile noise, LP rounding and benign perturbations (Fig. 7 uses
    /// ×0.5 slowdowns, so the default of 3 never trips on them).
    pub factor: f64,
}

impl Default for DeadlinePolicy {
    fn default() -> Self {
        DeadlinePolicy { factor: 3.0 }
    }
}

impl DeadlinePolicy {
    pub fn new(factor: f64) -> Self {
        DeadlinePolicy { factor }
    }

    /// Deadlines for one frame given predicted `(τ1, τ2, τtot)` seconds.
    pub fn deadlines(&self, predicted: (f64, f64, f64)) -> Deadlines {
        Deadlines {
            tau1: predicted.0 * self.factor,
            tau2: predicted.1 * self.factor,
            tau_tot: predicted.2 * self.factor,
        }
    }
}

/// Absolute (virtual-time) deadlines for one frame's sync points.
#[derive(Clone, Copy, Debug)]
pub struct Deadlines {
    pub tau1: f64,
    pub tau2: f64,
    pub tau_tot: f64,
}

impl Deadlines {
    /// Checks measured sync-point times against the deadlines and returns
    /// the earliest missed point together with the time at which the miss
    /// was detected (the deadline itself — the framework waits no longer).
    pub fn check(&self, tau1: f64, tau2: f64, tau_tot: f64) -> Option<(SyncPoint, f64)> {
        if tau1 > self.tau1 {
            Some((SyncPoint::Tau1, self.tau1))
        } else if tau2 > self.tau2 {
            Some((SyncPoint::Tau2, self.tau2))
        } else if tau_tot > self.tau_tot {
            Some((SyncPoint::TauTot, self.tau_tot))
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn healthy_frame_passes() {
        let d = DeadlinePolicy::new(3.0).deadlines((1.0, 2.0, 3.0));
        assert!(d.check(1.2, 2.4, 3.6).is_none());
    }

    #[test]
    fn earliest_miss_wins() {
        let d = DeadlinePolicy::new(2.0).deadlines((1.0, 2.0, 3.0));
        // τ1 blown: detected at the τ1 deadline even though τtot also blown.
        let (point, at) = d.check(10.0, 20.0, 30.0).unwrap();
        assert_eq!(point, SyncPoint::Tau1);
        assert!((at - 2.0).abs() < 1e-12);
        // Only the tail blown: attributed to τtot.
        let (point, at) = d.check(1.5, 3.0, 100.0).unwrap();
        assert_eq!(point, SyncPoint::TauTot);
        assert!((at - 6.0).abs() < 1e-12);
    }
}
