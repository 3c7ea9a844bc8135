//! Inter-frame overlap.
//!
//! The lockstep control loop finishes each frame at its τtot barrier before
//! starting the next: every device that finished its stripes early idles
//! until the slowest one crosses the barrier, then idles again through the
//! LP re-solve. The flight recorder's idle attribution shows this
//! τ-sync stall directly. This module extends the paper's Fig-4 overlap
//! from intra-frame to inter-frame: frame N+1's ME/INT phase is pulled
//! forward onto devices that have finished their frame-N stripes while
//! frame N's R\* merge and entropy coding drain.
//!
//! The whole overlap is one formula over the previous frame's per-device
//! stall, the *carry* ([`CompletionTracker::stalls`]). The encoder keeps it
//! between frames when `--pipeline on`, and drops it at every frame
//! boundary a checkpoint or a fault re-solve needs
//! ([`crate::FevesEncoder::quiesce_pipeline`]): the frame after a boundary
//! starts cold, alone in flight.
//!
//! # Equivalence by construction
//!
//! Overlap is *accounting*, not a different execution: the per-frame graph
//! construction, LP solve and simulation are identical in both modes, so
//! the bitstream and the perf-characterization stream are byte-for-byte
//! the same under `--pipeline off|on`. What changes is the effective
//! wall-clock attributed to each frame: frame N+1's data-independent
//! phase-1 prefix (CF upload + ME against already-resident references)
//! runs inside frame N's per-device stall, and the time recovered is
//! subtracted from N+1's reported sync points.

use feves_sched::CompletionTracker;

/// Overlap accounting for one measured frame.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct PipelineOverlap {
    /// Wall-clock seconds shaved off this frame's critical path by running
    /// its phase-1 prefix inside the previous frame's idle tails.
    pub saved_s: f64,
    /// Per-device seconds of the previous frame's τ-sync stall recovered.
    pub recovered_s: Vec<f64>,
    /// Frames in flight when this one was submitted: 1 for the first frame
    /// after a boundary (and every lockstep frame), 2 in steady state.
    pub depth_at_submit: usize,
}

impl PipelineOverlap {
    /// Total stall recovered across all devices, in seconds.
    pub fn total_recovered_s(&self) -> f64 {
        self.recovered_s.iter().sum()
    }
}

/// Overlap of the frame measured by `tracker` against `carry`, the previous
/// frame's per-device stall (`None`: the frame starts cold and saves
/// nothing).
pub fn overlap(carry: Option<&[f64]>, tracker: &CompletionTracker) -> PipelineOverlap {
    let n = tracker.n_devices();
    let depth_at_submit = 1 + usize::from(carry.is_some());
    let Some(stall) = carry else {
        return PipelineOverlap {
            saved_s: 0.0,
            recovered_s: vec![0.0; n],
            depth_at_submit,
        };
    };
    // Phase-1 prefix of this frame, per device, that fits inside the
    // previous frame's idle tail.
    let recovered: Vec<f64> = (0..n)
        .map(|d| {
            let carried = stall.get(d).copied().unwrap_or(0.0);
            tracker.phase1_of(d).min(carried)
        })
        .collect();
    // τ1 is set by the slowest phase-1 device; shifting each device's
    // phase-1 earlier by its recovered span moves the barrier by the
    // smallest such shift.
    let tau1 = tracker.phase1().iter().cloned().fold(0.0_f64, f64::max);
    let shifted = (0..n)
        .map(|d| tracker.phase1_of(d) - recovered[d])
        .fold(0.0_f64, f64::max);
    PipelineOverlap {
        saved_s: (tau1 - shifted).clamp(0.0, tau1),
        recovered_s: recovered,
        depth_at_submit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracker(finishes: &[(f64, f64)]) -> CompletionTracker {
        // (phase1_finish, total_finish) per device.
        let mut t = CompletionTracker::new(finishes.len());
        for (d, &(p1, tot)) in finishes.iter().enumerate() {
            t.record(d, p1, true);
            t.record(d, tot, false);
        }
        t
    }

    #[test]
    fn a_cold_frame_saves_nothing() {
        let o = overlap(None, &tracker(&[(1.0, 4.0), (2.0, 10.0)]));
        assert_eq!(o.saved_s, 0.0);
        assert_eq!(o.recovered_s, vec![0.0, 0.0]);
        assert_eq!(o.depth_at_submit, 1);
    }

    #[test]
    fn steady_state_recovers_stall_into_phase1() {
        // Frame 0: device 0 stalls 6 s, device 1 sets the barrier.
        let t0 = tracker(&[(3.0, 4.0), (5.0, 10.0)]);
        assert_eq!(t0.stalls(), vec![6.0, 0.0]);

        // Frame 1: phase-1 of device 0 (3 s) fits entirely inside its 6 s
        // stall; device 1 had no stall. τ1 = 5 is set by device 1, so the
        // barrier cannot move: saved = 0 but 3 s of stall were recovered.
        let t1 = tracker(&[(3.0, 4.0), (5.0, 10.0)]);
        let o1 = overlap(Some(&t0.stalls()), &t1);
        assert_eq!(o1.depth_at_submit, 2);
        assert_eq!(o1.recovered_s, vec![3.0, 0.0]);
        assert_eq!(o1.saved_s, 0.0);

        // Frame 2: make the stalled device the τ1 critical path. Frame 1
        // carried stalls [6, 0]. Device 0's 5 s phase-1 now sets τ1 = 5 and
        // fits entirely inside its 6 s stall; device 1 carried nothing, so
        // its 2 s phase-1 cannot shift: shifted = max(5−5, 2−0) = 2,
        // saved = 3.
        let o2 = overlap(Some(&t1.stalls()), &tracker(&[(5.0, 9.0), (2.0, 9.0)]));
        assert_eq!(o2.recovered_s, vec![5.0, 0.0]);
        assert!((o2.saved_s - 3.0).abs() < 1e-12);
    }
}
