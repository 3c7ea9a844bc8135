//! Fault injection into the simulated platform.
//!
//! The injector translates a [`FaultSchedule`] into the knobs the simulator
//! already understands: compute faults become per-device speed-multiplier
//! overlays for [`crate::timeline::simulate`] (a dead or stalled device
//! still *accepts* work — it just never finishes it within any reasonable
//! deadline), while transfer errors and kernel panics are surfaced as
//! per-frame predicates the framework polls at the matching pipeline stage.
//!
//! Speed semantics match [`crate::timeline::simulate`]: a multiplier of
//! `0.5` means half speed, so a slowdown ×f overlays `1/f` and death/stall
//! overlay [`STALL_SPEED`] (≈10⁻⁶, i.e. a million times slower — enough to
//! blow any deadline without risking float overflow).

use feves_ft::{FaultKind, FaultSchedule, FaultSpec};

/// Effective speed multiplier of a dead or fully stalled device.
pub const STALL_SPEED: f64 = 1e-6;

/// Applies a deterministic fault schedule to a simulated platform.
#[derive(Clone, Debug, Default)]
pub struct FaultInjector {
    schedule: FaultSchedule,
}

impl FaultInjector {
    /// Wraps a fault schedule for injection.
    pub fn new(schedule: FaultSchedule) -> Self {
        FaultInjector { schedule }
    }

    /// True when no faults will ever fire.
    pub fn is_empty(&self) -> bool {
        self.schedule.is_empty()
    }

    /// Faults that begin exactly at inter frame `frame` (for the
    /// faults-injected counter).
    pub fn starting(&self, frame: usize) -> impl Iterator<Item = &FaultSpec> {
        self.schedule.starting(frame)
    }

    /// Overlays the compute faults active at `frame` onto per-device speed
    /// multipliers (composes with perturbations and other overlays).
    pub fn overlay_speeds(&self, frame: usize, speeds: &mut [f64]) {
        for spec in self.schedule.active(frame) {
            if spec.device >= speeds.len() {
                continue;
            }
            match spec.kind {
                FaultKind::Death | FaultKind::Stall { .. } => {
                    speeds[spec.device] = STALL_SPEED;
                }
                FaultKind::Slowdown { factor, .. } => {
                    speeds[spec.device] /= factor;
                }
                FaultKind::TransferError | FaultKind::KernelPanic => {}
            }
        }
    }

    /// True when an injected transfer error hits `device` at `frame`.
    pub fn transfer_fault(&self, frame: usize, device: usize) -> bool {
        self.schedule
            .active(frame)
            .any(|s| s.device == device && s.kind == FaultKind::TransferError)
    }

    /// True when an injected kernel panic hits `device` at `frame`.
    pub fn kernel_panic(&self, frame: usize, device: usize) -> bool {
        self.schedule
            .active(frame)
            .any(|s| s.device == device && s.kind == FaultKind::KernelPanic)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schedule() -> FaultSchedule {
        FaultSchedule::parse(&[
            "0:death@5".to_string(),
            "1:slow@3+2x10".to_string(),
            "1:xfer@7".to_string(),
            "0:panic@2".to_string(),
        ])
        .unwrap()
    }

    #[test]
    fn speed_overlay_composes() {
        let inj = FaultInjector::new(schedule());
        let mut speeds = vec![1.0, 0.5, 1.0];

        inj.overlay_speeds(4, &mut speeds); // slowdown active on dev 1 only
        assert_eq!(speeds[0], 1.0);
        assert!((speeds[1] - 0.05).abs() < 1e-12, "composes with ×0.5");

        let mut speeds = vec![1.0, 1.0, 1.0];
        inj.overlay_speeds(6, &mut speeds); // death active on dev 0
        assert_eq!(speeds[0], STALL_SPEED);
        assert_eq!(speeds[1], 1.0);
    }

    #[test]
    fn transfer_and_panic_predicates() {
        let inj = FaultInjector::new(schedule());
        assert!(inj.transfer_fault(7, 1));
        assert!(!inj.transfer_fault(7, 0));
        assert!(!inj.transfer_fault(6, 1));
        assert!(inj.kernel_panic(2, 0));
        assert!(!inj.kernel_panic(3, 0));
    }

    #[test]
    fn empty_injector_is_inert() {
        let inj = FaultInjector::default();
        assert!(inj.is_empty());
        let mut speeds = vec![1.0; 4];
        inj.overlay_speeds(3, &mut speeds);
        assert_eq!(speeds, vec![1.0; 4]);
    }
}
