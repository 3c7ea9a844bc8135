//! Rate control: a leaky-bucket controller that steers the quantization
//! parameter toward a target bitrate.
//!
//! The paper encodes at fixed QP {27, 28} per the VCEG common conditions;
//! real deployments (the "video content dominance" motivation of §I) run
//! closed-loop rate control. This is the classic buffer-feedback scheme:
//! a virtual decoder buffer drains at `target_bits_per_frame` and fills
//! with each coded frame; QP follows the buffer fullness with bounded
//! per-frame steps (H.264 recommends ±2 to avoid visible pumping).

/// Closed-loop QP controller.
///
/// ```
/// use feves_codec::rate::RateController;
/// let mut rc = RateController::new(3000.0, 25.0, 28); // 3 Mbit/s @ 25 fps
/// assert_eq!(rc.qp(), 28);
/// rc.update(1_000_000); // a frame 8x over budget
/// assert!(rc.qp() > 28, "overshoot must raise QP");
/// ```
#[derive(Clone, Debug)]
pub struct RateController {
    target_bits_per_frame: f64,
    /// Virtual buffer occupancy in bits (signed: negative = under-spending).
    buffer: f64,
    qp: u8,
    min_qp: u8,
    max_qp: u8,
}

impl RateController {
    /// Create a controller for `target_kbps` at `fps`, starting from
    /// `initial_qp` clamped to the default rails `10..=48`: the first frame
    /// is coded at [`Self::qp`], so it obeys the rails every later frame
    /// obeys.
    pub fn new(target_kbps: f64, fps: f64, initial_qp: u8) -> Self {
        assert!(target_kbps > 0.0 && fps > 0.0);
        let (min_qp, max_qp) = (10, 48);
        RateController {
            target_bits_per_frame: target_kbps * 1000.0 / fps,
            buffer: 0.0,
            qp: initial_qp.clamp(min_qp, max_qp),
            min_qp,
            max_qp,
        }
    }

    /// Restrict the QP excursion range.
    pub fn with_qp_range(mut self, min_qp: u8, max_qp: u8) -> Self {
        assert!(min_qp <= max_qp && max_qp <= 51);
        self.min_qp = min_qp;
        self.max_qp = max_qp;
        self.qp = self.qp.clamp(min_qp, max_qp);
        self
    }

    /// QP to use for the next frame.
    pub fn qp(&self) -> u8 {
        self.qp
    }

    /// Target bits for one frame.
    pub fn target_bits_per_frame(&self) -> f64 {
        self.target_bits_per_frame
    }

    /// Current virtual-buffer occupancy in frame-budgets
    /// (+1.0 = one frame's budget over-spent).
    pub fn buffer_fullness(&self) -> f64 {
        self.buffer / self.target_bits_per_frame
    }

    /// Full controller state for checkpointing.
    pub fn snapshot(&self) -> RateSnapshot {
        RateSnapshot {
            target_bits_per_frame: self.target_bits_per_frame,
            buffer: self.buffer,
            qp: self.qp,
            min_qp: self.min_qp,
            max_qp: self.max_qp,
        }
    }

    /// Rebuild a controller from a [`RateSnapshot`], or say why no
    /// controller can run it: the QP and its rails must hold `min_qp ≤ qp ≤
    /// max_qp ≤ 51`, the budget must be finite and positive and the buffer
    /// finite.
    pub fn from_snapshot(s: &RateSnapshot) -> Result<Self, String> {
        let (budget, buffer) = (s.target_bits_per_frame, s.buffer);
        if !(s.min_qp <= s.qp && s.qp <= s.max_qp && s.max_qp <= 51) {
            let (qp, min, max) = (s.qp, s.min_qp, s.max_qp);
            return Err(format!("rate qp {qp} with rails {min}..={max}"));
        }
        if !(budget.is_finite() && budget > 0.0 && buffer.is_finite()) {
            return Err(format!("rate budget {budget} bits, buffer {buffer} bits"));
        }
        Ok(RateController {
            target_bits_per_frame: s.target_bits_per_frame,
            buffer: s.buffer,
            qp: s.qp,
            min_qp: s.min_qp,
            max_qp: s.max_qp,
        })
    }

    /// Report the bits the last frame actually produced; updates the buffer
    /// and steps QP for the next frame.
    pub fn update(&mut self, coded_bits: u64) {
        self.buffer += coded_bits as f64 - self.target_bits_per_frame;
        // Deadband of ±20% of a frame budget; outside it, step QP by 1 per
        // 60% over/undershoot, clamped to ±2 per frame.
        let fullness = self.buffer_fullness();
        let step = if fullness > 0.2 {
            ((fullness / 0.6).ceil() as i32).min(2)
        } else if fullness < -0.2 {
            ((fullness / 0.6).floor() as i32).max(-2)
        } else {
            0
        };
        let new_qp = (self.qp as i32 + step).clamp(self.min_qp as i32, self.max_qp as i32);
        self.qp = new_qp as u8;
        // Leak: forget old error slowly so a startup transient does not
        // bias the steady state forever.
        self.buffer *= 0.85;
    }
}

/// Serializable state of a [`RateController`] (checkpoint payload).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RateSnapshot {
    /// Bit budget per frame.
    pub target_bits_per_frame: f64,
    /// Virtual-buffer occupancy in bits.
    pub buffer: f64,
    /// QP for the next frame.
    pub qp: u8,
    /// Lower QP rail.
    pub min_qp: u8,
    /// Upper QP rail.
    pub max_qp: u8,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A toy "encoder": bits halve roughly every 6 QP (the QStep doubling),
    /// with content noise.
    fn synthetic_bits(qp: u8, frame: usize) -> u64 {
        let base = 4_000_000.0 * f64::powf(2.0, -(qp as f64) / 6.0);
        let noise = 1.0 + 0.15 * ((frame as f64 * 0.7).sin());
        (base * noise) as u64
    }

    #[test]
    fn converges_to_target_rate() {
        let target_kbps = 3000.0;
        let fps = 25.0;
        let mut rc = RateController::new(target_kbps, fps, 28);
        let mut recent = Vec::new();
        for frame in 0..200 {
            let bits = synthetic_bits(rc.qp(), frame);
            rc.update(bits);
            if frame >= 150 {
                recent.push(bits as f64);
            }
        }
        let avg_kbps = recent.iter().sum::<f64>() / recent.len() as f64 * fps / 1000.0;
        assert!(
            (avg_kbps - target_kbps).abs() / target_kbps < 0.25,
            "steady rate {avg_kbps:.0} kbps vs target {target_kbps:.0}"
        );
    }

    #[test]
    fn harder_target_means_higher_qp() {
        let run = |kbps: f64| {
            let mut rc = RateController::new(kbps, 25.0, 28);
            for frame in 0..100 {
                let bits = synthetic_bits(rc.qp(), frame);
                rc.update(bits);
            }
            rc.qp()
        };
        let qp_low_rate = run(800.0);
        let qp_high_rate = run(8000.0);
        assert!(
            qp_low_rate > qp_high_rate + 4,
            "800 kbps → QP {qp_low_rate} must exceed 8 Mbps → QP {qp_high_rate}"
        );
    }

    #[test]
    fn qp_steps_are_bounded() {
        let mut rc = RateController::new(1000.0, 25.0, 28);
        let mut prev = rc.qp();
        for _ in 0..50 {
            rc.update(10_000_000); // massive overshoot every frame
            let q = rc.qp();
            assert!(q as i32 - prev as i32 <= 2, "step too large");
            prev = q;
        }
        assert_eq!(rc.qp(), 48, "must rail at max_qp under overshoot");
        for _ in 0..100 {
            rc.update(0);
        }
        assert_eq!(rc.qp(), 10, "must rail at min_qp under undershoot");
    }

    /// The first frame is coded at `qp()`, so a configured QP outside the
    /// default rails starts on the nearer rail, as every later frame would.
    #[test]
    fn new_starts_inside_the_rails() {
        assert_eq!(RateController::new(400.0, 25.0, 5).qp(), 10);
        assert_eq!(RateController::new(400.0, 25.0, 51).qp(), 48);
    }

    #[test]
    fn qp_range_respected() {
        let rc = RateController::new(1000.0, 25.0, 5).with_qp_range(20, 40);
        assert_eq!(rc.qp(), 20);
        let mut rc = rc;
        for _ in 0..50 {
            rc.update(50_000_000);
        }
        assert_eq!(rc.qp(), 40);
    }

    #[test]
    fn snapshot_restore_continues_the_control_loop() {
        let mut a = RateController::new(1500.0, 25.0, 28).with_qp_range(15, 45);
        for frame in 0..37 {
            a.update(synthetic_bits(a.qp(), frame));
        }
        let mut b = RateController::from_snapshot(&a.snapshot()).unwrap();
        assert_eq!(b.qp(), a.qp());
        for frame in 37..120 {
            let bits = synthetic_bits(a.qp(), frame);
            a.update(bits);
            b.update(bits);
            assert_eq!(a.qp(), b.qp(), "diverged at frame {frame}");
        }
    }

    #[test]
    fn deadband_keeps_qp_stable_on_target() {
        let mut rc = RateController::new(1000.0, 25.0, 30);
        let on_target = rc.target_bits_per_frame() as u64;
        for _ in 0..50 {
            rc.update(on_target);
        }
        assert_eq!(rc.qp(), 30, "exact-rate input must not move QP");
    }
}
